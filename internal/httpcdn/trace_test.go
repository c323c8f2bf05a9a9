package httpcdn

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
)

// startTracedCluster builds a cluster with span tracing on, returning
// the trace buffer.
func startTracedCluster(t *testing.T) (*Cluster, *obs.Tracer, *bytes.Buffer) {
	t.Helper()
	sc := smallScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	cfg := DefaultConfig()
	cfg.Tracer = tr
	cfg.TraceSpans = true
	cl, err := Start(sc, res.Placement, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, tr, &buf
}

// missPair finds (edge, site) where the edge holds no replica, so a
// first fetch must go upstream.
func missPair(t *testing.T, cl *Cluster) (edge, site int) {
	t.Helper()
	p := cl.Placement()
	for i := 0; i < cl.sc.Sys.N(); i++ {
		for j := 0; j < cl.sc.Sys.M(); j++ {
			if !p.Has(i, j) {
				return i, j
			}
		}
	}
	t.Skip("every edge replicates every site in this configuration")
	return 0, 0
}

func TestServeSpansStitchAcrossHops(t *testing.T) {
	cl, tr, buf := startTracedCluster(t)
	edge, site := missPair(t, cl)
	if _, err := cl.Fetch(context.Background(), edge, site, 1); err != nil {
		t.Fatal(err)
	}
	// The edge ends its serve span after it has written the response:
	// wait for its handler to return before reading the trace.
	cl.Close()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	_, spans, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
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
		// recorded by a *different* component than its parent: the hop
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

func TestSpansOffEmitsOnlyEvents(t *testing.T) {
	sc := smallScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Tracer = obs.NewTracer(&buf)
	cl, err := Start(sc, res.Placement, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Fetch(context.Background(), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The edge emits the event after it has written the response: wait
	// for its handler to return before reading the trace.
	cl.Close()
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events, spans, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || len(spans) != 0 {
		t.Fatalf("got %d events, %d spans; want 1 event and no spans with TraceSpans off",
			len(events), len(spans))
	}
}
