package httpcdn

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/xrand"
)

// TestEdgeStatsRatiosGuarded is the NaN-guard regression test for the
// HTTP layer: an idle edge must report 0 ratios, not NaN.
func TestEdgeStatsRatiosGuarded(t *testing.T) {
	var s EdgeStats
	if r := s.HitRatio(); r != 0 || math.IsNaN(r) {
		t.Errorf("idle HitRatio = %v, want 0", r)
	}
	if f := s.LocalFraction(); f != 0 || math.IsNaN(f) {
		t.Errorf("idle LocalFraction = %v, want 0", f)
	}
	s = EdgeStats{Replica: 6, CacheHit: 3, PeerFetch: 2, OriginFetch: 1}
	if r := s.HitRatio(); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("HitRatio = %v, want 0.5", r)
	}
	if f := s.LocalFraction(); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("LocalFraction = %v, want 0.75", f)
	}
}

// TestClusterMetricsAndTrace drives real HTTP traffic through an
// instrumented cluster and checks that the registry and the JSONL
// tracer were populated with consistent values.
func TestClusterMetricsAndTrace(t *testing.T) {
	sc := smallScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Metrics = reg
	cfg.Tracer = obs.NewTracer(&traceBuf)
	cl, err := Start(sc, res.Placement, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const requests = 300
	stream := sc.Stream(xrand.New(42))
	for k := 0; k < requests; k++ {
		req := stream.Next()
		if _, err := cl.Fetch(context.Background(), req.Server, req.Site, req.Object); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	// Drain the cluster before reading what it recorded. A handler
	// counts its serve before it writes the body, but observes the
	// latency histogram and emits its trace event after, so the client
	// can hold every response while the last handler is still running.
	// Close waits for every in-flight handler; the deferred Close then
	// finds nothing left to close.
	cl.Close()
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every client serve (plus any internal peer serve) left a trace
	// event with a canonical source.
	events, err := obs.ReadEvents(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < requests {
		t.Fatalf("%d trace events for %d client requests", len(events), requests)
	}
	for _, e := range events {
		if e.Source != SourceReplica && e.Source != SourceCache &&
			e.Source != SourcePeer && e.Source != SourceOrigin {
			t.Fatalf("invalid trace source %q", e.Source)
		}
		if e.LatencyMs <= 0 {
			t.Fatalf("non-positive latency %v", e.LatencyMs)
		}
	}

	// The per-edge request counters must sum to the trace event count
	// (both count serves at edges, client-facing and internal).
	var counterTotal int64
	for i := 0; i < sc.Sys.N(); i++ {
		for _, src := range obs.Sources {
			counterTotal += reg.Counter("cdn_edge_requests_total", "",
				obs.Labels{"edge": strconv.Itoa(i), "source": src}).Value()
		}
	}
	if counterTotal != int64(len(events)) {
		t.Errorf("cdn_edge_requests_total sums to %d, trace has %d events",
			counterTotal, len(events))
	}

	// Latency histograms saw every serve.
	var histTotal int64
	for _, src := range obs.Sources {
		histTotal += reg.Histogram("cdn_request_latency_ms", "",
			obs.Labels{"source": src}, obs.DefaultLatencyBuckets()).Count()
	}
	if histTotal != int64(len(events)) {
		t.Errorf("latency histograms count %d, want %d", histTotal, len(events))
	}

	// Edge hit/miss counters agree with the EdgeStats the cluster kept.
	for i := 0; i < sc.Sys.N(); i++ {
		st := cl.EdgeStats(i)
		hits := reg.Counter("cdn_edge_cache_hits_total", "", obs.Labels{"edge": strconv.Itoa(i)}).Value()
		if hits != st.CacheHit {
			t.Errorf("edge %d: counter hits %d, stats %d", i, hits, st.CacheHit)
		}
	}

	// The rendered exposition includes the full metric surface.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cdn_edge_requests_total", "cdn_edge_cache_hits_total",
		"cdn_edge_cache_misses_total", "cdn_edge_cache_resident_bytes",
		"cdn_request_latency_ms_bucket",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestUninstrumentedClusterUnaffected checks the nil-registry path
// still serves correctly (no nil-map or nil-pointer use).
func TestUninstrumentedClusterUnaffected(t *testing.T) {
	sc, _, cl := startHybridCluster(t)
	stream := sc.Stream(xrand.New(7))
	for k := 0; k < 50; k++ {
		req := stream.Next()
		if _, err := cl.Fetch(context.Background(), req.Server, req.Site, req.Object); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
}
