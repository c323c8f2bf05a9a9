package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	spans := []Span{
		{Trace: DeterministicTraceID(1), Span: DeterministicSpanID(2), Kind: SpanServe,
			Edge: 0, Site: 3, Object: 7, StartUs: 0, DurUs: 20000,
			Attrs: map[string]string{"source": SourceReplica, "outcome": "ok"}},
		{Trace: DeterministicTraceID(2), Span: DeterministicSpanID(4), Kind: SpanServe,
			Edge: 2, Site: 1, Object: 1, StartUs: 1000, DurUs: 110000},
	}
	for _, s := range spans {
		tr.EmitSpan(s)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	// Each line must be one standalone JSON object (valid JSONL).
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("%d lines, want %d", len(lines), len(spans))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		for _, field := range []string{"trace", "span", "kind", "edge", "site", "object", "start_us", "dur_us"} {
			if _, ok := m[field]; !ok {
				t.Errorf("line %q missing field %q", line, field)
			}
		}
	}

	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("ReadTrace = %+v, want %+v", got, spans)
	}
}

func TestTracerNextIDSequence(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	for want := int64(1); want <= 3; want++ {
		if got := tr.NextID(); got != want {
			t.Fatalf("NextID() = %d, want %d", got, want)
		}
	}
}

// failingWriter errors after the buffered writer flushes.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(failingWriter{})
	tr.EmitSpan(Span{Kind: SpanServe})
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush() = nil, want error")
	}
	tr.EmitSpan(Span{Kind: SpanServe}) // must not panic; dropped
	if tr.Err() == nil {
		t.Fatal("Err() = nil after failed flush")
	}
}
