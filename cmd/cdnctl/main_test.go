package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/httpcdn"
	"repro/internal/placement"
)

// stubControlServer serves the three debug endpoints cdnctl talks to,
// with canned payloads shaped like a real cdnd's.
func stubControlServer(t *testing.T) string {
	t.Helper()
	st := control.Status{
		Rounds:       4,
		Applied:      2,
		Replicas:     5,
		Observed:     12345,
		EdgeRates:    []float64{300, 100},
		WindowTotals: []int64{380, 420, 400},
		Placement:    [][]int{{0, 2}, {1}},
		Last: &control.Report{
			Round:    4,
			Outcome:  control.OutcomeApplied,
			Excluded: []int{1, 3},
			Diff: placement.DiffResult{
				Created: []placement.Replica{{Server: 0, Site: 2}},
			},
		},
	}
	rep := control.Report{
		Round:          5,
		Outcome:        control.OutcomeNoop,
		WindowRequests: 678,
		Excluded:       []int{2},
	}
	hr := httpcdn.HealthReport{
		Edges: []httpcdn.HealthStatus{
			{Kind: "edge", ID: 0, State: "healthy"},
			{Kind: "edge", ID: 1, State: "ejected", ConsecutiveFailures: 3,
				Ejections: 1, RetryInMs: 1500},
		},
		Origins: []httpcdn.HealthStatus{
			{Kind: "origin", ID: 0, State: "healthy", Readmissions: 1},
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/control", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/debug/control/reconcile", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(hr)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestStatusCommand(t *testing.T) {
	addr := stubControlServer(t)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "status"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"rounds     4 (applied 2,",
		"observed   12345 requests",
		"rate       400.0 requests/window (EWMA): edge 0 75.0% edge 1 25.0%",
		"windows    [380 420 400] requests, oldest first",
		"replicas   5",
		"edge 0: [0 2]",
		"last round 4: applied, +1/-0 replicas",
		"excluded unhealthy edges [1 3]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("status output missing %q:\n%s", want, text)
		}
	}
}

func TestReconcileCommand(t *testing.T) {
	addr := stubControlServer(t)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "reconcile"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"round 5: noop",
		"window     678 requests",
		"excluded   unhealthy edges [2]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("reconcile output missing %q:\n%s", want, text)
		}
	}
}

func TestHealthCommand(t *testing.T) {
	addr := stubControlServer(t)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "health"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"edge        0  healthy",
		"ejected  fails=3 ejections=1",
		"retry-in=1500ms",
		"origin      0  healthy",
		"readmissions=1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("health output missing %q:\n%s", want, text)
		}
	}
}

func TestJSONPassthrough(t *testing.T) {
	addr := stubControlServer(t)
	for _, cmd := range []string{"status", "reconcile", "health"} {
		var out bytes.Buffer
		if err := run([]string{"-addr", addr, "-json", cmd}, &out); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(out.Bytes()) {
			t.Errorf("%s -json emitted invalid JSON: %s", cmd, out.String())
		}
	}
	// The raw status round-trips back into the typed struct.
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-json", "status"}, &out); err != nil {
		t.Fatal(err)
	}
	var st control.Status
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 4 || st.Last == nil || len(st.Last.Excluded) != 2 {
		t.Fatalf("raw status decoded to %+v", st)
	}
}

func TestUsageAndErrors(t *testing.T) {
	addr := stubControlServer(t)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "explode"}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown command") {
		t.Errorf("unknown command: %v", err)
	}
	if err := run([]string{"-addr", addr}, &out); err == nil ||
		!strings.HasPrefix(err.Error(), "usage:") {
		t.Errorf("missing command: %v", err)
	}
	if err := run([]string{"-addr", addr, "status", "extra"}, &out); err == nil ||
		!strings.HasPrefix(err.Error(), "usage:") {
		t.Errorf("extra argument: %v", err)
	}
	// An unreachable server is a plain error, not a usage error.
	if err := run([]string{"-addr", "127.0.0.1:1", "-timeout", "200ms", "health"}, &out); err == nil ||
		strings.HasPrefix(err.Error(), "usage:") {
		t.Errorf("unreachable server: %v", err)
	}
}
