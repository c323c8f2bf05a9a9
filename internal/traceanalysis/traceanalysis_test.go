package traceanalysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// corpusFor builds a corpus of two traces: a fast local hit and a slow
// multi-hop miss with health/failover/upstream/retry children.
func corpusFor(t *testing.T) *Corpus {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	fast := obs.DeterministicTraceID(1)
	tr.EmitSpan(obs.Span{
		Trace: fast, Span: obs.DeterministicSpanID(10), Kind: obs.SpanServe,
		Edge: 0, Site: 0, Object: 1, StartUs: 0, DurUs: 1000,
		Attrs: map[string]string{"source": "replica", "outcome": "ok"},
	})

	slow := obs.DeterministicTraceID(2)
	root := obs.DeterministicSpanID(20)
	health := obs.DeterministicSpanID(21)
	fail := obs.DeterministicSpanID(22)
	up1 := obs.DeterministicSpanID(23)
	retry := obs.DeterministicSpanID(24)
	up2 := obs.DeterministicSpanID(25)
	remote := obs.DeterministicSpanID(26)
	tr.EmitSpan(obs.Span{Trace: slow, Span: root, Kind: obs.SpanServe,
		Edge: 1, Site: 2, Object: 3, StartUs: 0, DurUs: 9000,
		Attrs: map[string]string{"source": "peer", "outcome": "ok"}})
	tr.EmitSpan(obs.Span{Trace: slow, Span: health, Parent: root, Kind: obs.SpanHealth,
		Edge: 1, Site: 2, Object: 3, StartUs: 10, DurUs: 5,
		Attrs: map[string]string{"candidates": "2", "skipped_ejected": "1"}})
	tr.EmitSpan(obs.Span{Trace: slow, Span: fail, Parent: root, Kind: obs.SpanFailover,
		Edge: 1, Site: 2, Object: 3, StartUs: 20, DurUs: 8900,
		Attrs: map[string]string{"hop": "0", "target": "edge:2", "outcome": "ok"}})
	tr.EmitSpan(obs.Span{Trace: slow, Span: up1, Parent: fail, Kind: obs.SpanUpstream,
		Edge: 1, Site: 2, Object: 3, StartUs: 30, DurUs: 2000,
		Attrs: map[string]string{"attempt": "1", "target": "edge:2", "outcome": "error:unreachable"}})
	tr.EmitSpan(obs.Span{Trace: slow, Span: retry, Parent: fail, Kind: obs.SpanRetry,
		Edge: 1, Site: 2, Object: 3, StartUs: 2040, DurUs: 1000,
		Attrs: map[string]string{"after_attempt": "1"}})
	tr.EmitSpan(obs.Span{Trace: slow, Span: up2, Parent: fail, Kind: obs.SpanUpstream,
		Edge: 1, Site: 2, Object: 3, StartUs: 3050, DurUs: 5800,
		Attrs: map[string]string{"attempt": "2", "target": "edge:2", "outcome": "ok"}})
	// The remote edge's serve span, stitched under the upstream attempt
	// via the traceparent header.
	tr.EmitSpan(obs.Span{Trace: slow, Span: remote, Parent: up2, Kind: obs.SpanServe,
		Edge: 2, Site: 2, Object: 3, StartUs: 3100, DurUs: 5600,
		Attrs: map[string]string{"source": "replica", "outcome": "ok"}})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	var c Corpus
	if err := c.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestStatsByKind(t *testing.T) {
	c := corpusFor(t)
	stats := c.StatsByKind()
	byKind := map[string]KindStats{}
	for _, st := range stats {
		byKind[st.Kind] = st
	}
	if st := byKind[obs.SpanServe]; st.Count != 3 || st.MaxMs != 9 {
		t.Fatalf("serve stats %+v", st)
	}
	if st := byKind[obs.SpanUpstream]; st.Count != 2 || st.MaxMs != 5.8 {
		t.Fatalf("upstream stats %+v", st)
	}
	if st := byKind[obs.SpanRetry]; st.Count != 1 || st.P50Ms != 1 {
		t.Fatalf("retry stats %+v", st)
	}
	// Canonical display order is preserved.
	if stats[0].Kind != obs.SpanServe {
		t.Fatalf("first kind %q, want serve", stats[0].Kind)
	}
}

func TestBuildTracesAndCriticalPath(t *testing.T) {
	c := corpusFor(t)
	traces := c.BuildTraces()
	if len(traces) != 2 {
		t.Fatalf("%d traces, want 2", len(traces))
	}
	slow := traces[0]
	if slow.Root.Kind != obs.SpanServe || slow.Root.DurUs != 9000 {
		t.Fatalf("slowest trace root %+v", slow.Root.Span)
	}
	if slow.Spans != 7 || slow.Orphans != 0 {
		t.Fatalf("slow trace spans=%d orphans=%d", slow.Spans, slow.Orphans)
	}
	// serve → failover → upstream(attempt 2) → remote serve.
	path := slow.CriticalPath()
	kinds := make([]string, len(path))
	for i, n := range path {
		kinds[i] = n.Kind
	}
	want := "serve failover upstream serve"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("critical path %q, want %q", got, want)
	}
	if path[2].Attrs["attempt"] != "2" {
		t.Fatalf("critical path picked attempt %q, want the slow retry", path[2].Attrs["attempt"])
	}
	if traces[1].Spans != 1 {
		t.Fatalf("fast trace spans=%d", traces[1].Spans)
	}
}

func TestRetryStats(t *testing.T) {
	c := corpusFor(t)
	st := c.Retry()
	if st.UpstreamAttempts != 2 || st.AttemptTagged != 2 || st.FirstAttemptOK != 0 {
		t.Fatalf("upstream attempts %+v", st)
	}
	if st.Retries != 1 || st.RetryWaitMs != 1 {
		t.Fatalf("retry stats %+v", st)
	}
	if st.FailoverHops["0"] != 1 {
		t.Fatalf("failover hops %+v", st.FailoverHops)
	}
	if st.SkippedEjected != 1 {
		t.Fatalf("skipped ejected %d", st.SkippedEjected)
	}
}

func TestCheckCleanCorpus(t *testing.T) {
	c := corpusFor(t)
	if errs := c.Check(); len(errs) != 0 {
		t.Fatalf("clean corpus fails check: %v", errs)
	}
}

func TestCheckFindsViolations(t *testing.T) {
	c := corpusFor(t)
	c.Spans = append(c.Spans,
		obs.Span{Trace: c.Spans[0].Trace, Span: obs.DeterministicSpanID(99),
			Parent: "feedfeedfeedfeed", Kind: obs.SpanServe},
		obs.Span{Trace: "nothex", Span: obs.DeterministicSpanID(98), Kind: obs.SpanServe},
		obs.Span{Trace: c.Spans[0].Trace, Span: obs.DeterministicSpanID(97), Kind: "bogus"},
	)
	errs := c.Check()
	if len(errs) != 3 {
		t.Fatalf("%d violations, want 3: %v", len(errs), errs)
	}
}

func TestBuildTraceSurvivesLostRoot(t *testing.T) {
	c := corpusFor(t)
	// Drop the slow trace's root span; the earliest orphan is promoted.
	slowID := obs.DeterministicTraceID(2)
	var kept []obs.Span
	for _, s := range c.Spans {
		if s.Trace == slowID && s.Parent == "" {
			continue
		}
		kept = append(kept, s)
	}
	c.Spans = kept
	for _, tr := range c.BuildTraces() {
		if tr.ID != slowID {
			continue
		}
		if tr.Root == nil || tr.Spans != 6 {
			t.Fatalf("lost-root trace %+v", tr)
		}
		if tr.Orphans == 0 {
			t.Fatal("lost root produced no orphans")
		}
		return
	}
	t.Fatal("slow trace vanished")
}
