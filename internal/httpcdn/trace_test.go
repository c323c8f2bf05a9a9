package httpcdn

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// missPair finds (edge, site) where the edge holds no replica, so a
// first fetch must go upstream.
func missPair(t *testing.T, m *mesh) (edge, site int) {
	t.Helper()
	p := m.engines[0].Placement()
	for i := 0; i < m.sc.Sys.N(); i++ {
		for j := 0; j < m.sc.Sys.M(); j++ {
			if !p.Has(i, j) {
				return i, j
			}
		}
	}
	t.Fatal("every edge replicates every site in this configuration")
	return 0, 0
}

func TestServeSpansStitchAcrossHops(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	m := startHybridMesh(t, tr)
	edge, site := missPair(t, m)
	if _, err := m.fetch(edge, site, 1); err != nil {
		t.Fatal(err)
	}
	// The edge ends its serve span after it has written the response:
	// wait for its handler to return before reading the trace.
	m.close()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	for _, s := range spans {
		if err := obs.ValidateSpan(s); err != nil {
			t.Fatalf("invalid span: %v", err)
		}
	}

	// All spans of a miss fetch belong to one trace.
	trace := spans[0].Trace
	byID := make(map[string]obs.Span, len(spans))
	kinds := make(map[string]int)
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("span %s in trace %s, want %s (one client request = one trace)",
				s.Span, s.Trace, trace)
		}
		byID[s.Span] = s
		kinds[s.Kind]++
	}
	if kinds[obs.SpanServe] == 0 || kinds[obs.SpanHealth] == 0 ||
		kinds[obs.SpanFailover] == 0 || kinds[obs.SpanUpstream] == 0 {
		t.Fatalf("span kinds %v, want at least serve+health+failover+upstream", kinds)
	}

	// Exactly one root; every other span's parent must resolve — that is
	// the multi-hop stitch (the upstream server's spans arrive with a
	// Traceparent-derived parent from the calling edge).
	roots, stitched := 0, false
	for _, s := range spans {
		if s.Parent == "" {
			roots++
			if s.Kind != obs.SpanServe {
				t.Fatalf("root span has kind %q, want serve", s.Kind)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s (%s) has unknown parent %s", s.Span, s.Kind, s.Parent)
		}
		// A serve/origin span whose parent is an upstream attempt was
		// recorded by a *different* server than its parent: the hop
		// crossed a real HTTP boundary.
		if (s.Kind == obs.SpanServe || s.Kind == obs.SpanOrigin) && p.Kind == obs.SpanUpstream {
			stitched = true
		}
	}
	if roots != 1 {
		t.Fatalf("%d root spans, want exactly 1", roots)
	}
	if !stitched {
		t.Fatal("no remote span stitched under an upstream attempt")
	}
}
