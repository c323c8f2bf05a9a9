package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCheckRejectsNonSpanRecord: the span is the trace schema's only
// record, so -check fails a file holding anything else — here the
// per-request event line older simulator traces carried — and passes
// the same file without it.
func TestCheckRejectsNonSpanRecord(t *testing.T) {
	serve := `{"trace":"` + obs.DeterministicTraceID(1) + `","span":"` + obs.DeterministicSpanID(2) +
		`","kind":"serve","edge":0,"site":0,"object":1,"start_us":0,"dur_us":20000,` +
		`"attrs":{"outcome":"ok","source":"replica"}}`
	event := `{"req":1,"edge":0,"site":0,"object":1,"source":"replica","hops":0,"latency_ms":20}`
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := run([]string{write("spans.jsonl", serve)}, 1, "", true); err != nil {
		t.Fatalf("-check on a span-only file: %v", err)
	}
	err := run([]string{write("mixed.jsonl", event, serve)}, 1, "", true)
	if err == nil || !strings.Contains(err.Error(), "not a span") {
		t.Fatalf("-check on a file with an event line: %v, want a not-a-span error", err)
	}
}

// TestCheckAcceptsClientSpans: -check passes a trace whose requests hang
// under a load generator's client span, as the benchmark's traces do.
func TestCheckAcceptsClientSpans(t *testing.T) {
	trace := obs.DeterministicTraceID(1)
	client := `{"trace":"` + trace + `","span":"` + obs.DeterministicSpanID(1) +
		`","kind":"client","edge":0,"site":0,"object":1,"start_us":0,"dur_us":30}`
	serve := `{"trace":"` + trace + `","span":"` + obs.DeterministicSpanID(2) + `","parent":"` + obs.DeterministicSpanID(1) +
		`","kind":"serve","edge":0,"site":0,"object":1,"start_us":5,"dur_us":20,` +
		`"attrs":{"outcome":"ok","source":"replica"}}`
	path := filepath.Join(t.TempDir(), "client.jsonl")
	if err := os.WriteFile(path, []byte(client+"\n"+serve+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, 1, "", true); err != nil {
		t.Fatalf("-check on a trace with client spans: %v", err)
	}
}
