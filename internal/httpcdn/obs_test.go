package httpcdn

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
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
// instrumented mesh and checks that the registries and the span tracer
// were populated with consistent values.
func TestClusterMetricsAndTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	m := startHybridMesh(t, tr)

	const requests = 300
	stream := m.sc.Stream(xrand.New(42))
	for k := 0; k < requests; k++ {
		req := stream.Next()
		if _, err := m.fetch(req.Server, req.Site, req.Object); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	// Drain the mesh before reading what it recorded. A handler counts
	// its serve before it writes the body, but observes the latency
	// histogram and ends its serve span after, so the client can hold
	// every response while the last handler is still running.
	m.close()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Every client serve, plus any internal peer serve, left one
	// successful serve span with a canonical source.
	var serves int64
	for _, s := range spans {
		if s.Kind != obs.SpanServe {
			continue
		}
		serves++
		if src := s.Attrs["source"]; src != SourceReplica && src != SourceCache &&
			src != SourcePeer && src != SourceOrigin {
			t.Fatalf("serve span with invalid source %q", src)
		}
		if s.Attrs["outcome"] != "ok" {
			t.Fatalf("serve span with outcome %q", s.Attrs["outcome"])
		}
	}
	if serves < requests {
		t.Fatalf("%d serve spans for %d client requests", serves, requests)
	}

	// The per-edge request counters and the latency histograms each
	// count every serve once.
	var counted, observed int64
	for i, reg := range m.regs {
		for _, src := range obs.Sources {
			counted += reg.Counter("cdn_edge_requests_total", "",
				obs.Labels{"edge": strconv.Itoa(i), "source": src}).Value()
			observed += reg.Histogram("cdn_request_latency_ms", "",
				obs.Labels{"source": src}, obs.DefaultLatencyBuckets()).Count()
		}
	}
	if counted != serves {
		t.Errorf("cdn_edge_requests_total sums to %d, trace has %d serve spans", counted, serves)
	}
	if observed != serves {
		t.Errorf("latency histograms count %d, want %d", observed, serves)
	}

	// Edge hit counters agree with the EdgeStats each engine kept.
	for i, reg := range m.regs {
		hits := reg.Counter("cdn_edge_cache_hits_total", "", obs.Labels{"edge": strconv.Itoa(i)}).Value()
		if st := m.engines[i].Stats(); hits != st.CacheHit {
			t.Errorf("edge %d: counter hits %d, stats %d", i, hits, st.CacheHit)
		}
	}

	// The rendered exposition includes the full metric surface.
	var b strings.Builder
	if err := m.regs[0].WritePrometheus(&b); err != nil {
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
