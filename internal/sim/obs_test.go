package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/xrand"
)

// TestPerServerHitRatioZeroLookupsIsZero is the NaN-guard regression
// test: servers whose caches never see a lookup (here: every server,
// because everything is replicated) must report hit ratio 0, not NaN.
func TestPerServerHitRatioZeroLookupsIsZero(t *testing.T) {
	sc := smallScenario(11, 0)
	for i := range sc.Sys.Capacity {
		sc.Sys.Capacity[i] = sc.Work.TotalBytes * 2
	}
	p := core.NewPlacement(sc.Sys)
	for i := 0; i < sc.Sys.N(); i++ {
		for j := 0; j < sc.Sys.M(); j++ {
			if err := p.Replicate(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := MustRun(context.Background(), sc, p, fastConfig(true), xrand.New(12))
	for i, r := range m.PerServerHitRatio {
		if math.IsNaN(r) || r != 0 {
			t.Errorf("server %d: hit ratio %v with %d lookups, want 0",
				i, r, m.PerServerLookups[i])
		}
		if m.PerServerLookups[i] != 0 || m.PerServerHits[i] != 0 {
			t.Errorf("server %d: lookups=%d hits=%d under full replication",
				i, m.PerServerLookups[i], m.PerServerHits[i])
		}
	}
	if math.IsNaN(m.HitRatio()) {
		t.Error("aggregate HitRatio is NaN with zero lookups")
	}
}

// TestTracerEmitsSchemaAndReconciles drives a seeded parallel hybrid
// run with the JSONL tracer attached and rebuilds the run's Metrics
// from the serve and upstream spans alone: the per-source counts, each
// edge's cache lookups and hits, and MeanRTMs, MeanHops and
// ResponseTimesMs, summed in StartUs order. Every request is cacheable
// (λ = 0), so each edge's lookups are its requests not served by a
// replica. Equality, bit for bit, shows the spans carry everything a
// measured request's outcome holds — the model-vs-measured diffing
// contract.
func TestTracerEmitsSchemaAndReconciles(t *testing.T) {
	sc := smallScenario(13, 0)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := fastConfig(true)
	cfg.Requests = 20000
	cfg.Warmup = 10000
	cfg.Parallelism = 4
	cfg.Tracer = obs.NewTracer(&buf)
	m, err := RunParallel(context.Background(), sc, res.Placement, cfg, xrand.New(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bypass != 0 || m.RemoteServer == 0 || m.OriginFetch == 0 || m.CacheHits == 0 || m.LocalReplica == 0 {
		t.Fatalf("run does not exercise every source without bypasses: %+v", m)
	}
	got, err := metricsFromSpans(spans, &cfg, sc.Sys.N())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("metrics rebuilt from spans differ from the run's:\n got: %+v\nwant: %+v", got, m)
	}
}

// metricsFromSpans rebuilds a static, all-cacheable run's Metrics from
// its span trace: one serve span per measured request, whose "source"
// attribute says where it was served, and an upstream child, whose
// "hops" attribute is the redirect cost, for each request that
// travelled.
func metricsFromSpans(spans []obs.Span, cfg *Config, n int) (*Metrics, error) {
	var serves []obs.Span
	hopsOf := map[string]float64{} // serve span ID → hops
	for _, s := range spans {
		if err := obs.ValidateSpan(s); err != nil {
			return nil, err
		}
		switch s.Kind {
		case obs.SpanServe:
			if s.Parent != "" {
				return nil, fmt.Errorf("serve span %s has a parent", s.Span)
			}
			serves = append(serves, s)
		case obs.SpanUpstream:
			h, err := strconv.ParseFloat(s.Attrs["hops"], 64)
			if err != nil || s.Parent == "" || h <= 0 {
				return nil, fmt.Errorf("upstream span %s: parent %q, hops %q", s.Span, s.Parent, s.Attrs["hops"])
			}
			hopsOf[s.Parent] = h
		default:
			return nil, fmt.Errorf("unexpected sim span kind %q", s.Kind)
		}
	}
	sort.SliceStable(serves, func(a, b int) bool { return serves[a].StartUs < serves[b].StartUs })
	m := &Metrics{
		Requests:          len(serves),
		PerServerHitRatio: make([]float64, n),
		PerServerHits:     make([]int64, n),
		PerServerLookups:  make([]int64, n),
	}
	if cfg.KeepResponseTimes {
		m.ResponseTimesMs = make([]float64, 0, len(serves))
	}
	var totalRT, totalHops float64
	for k, s := range serves {
		if want := int64(k) * 1000; s.StartUs != want {
			return nil, fmt.Errorf("serve span %d starts at %d µs, want %d", k, s.StartUs, want)
		}
		hops := hopsOf[s.Span]
		delete(hopsOf, s.Span)
		rt := cfg.FirstHopMs + cfg.PerHopMs*hops
		if s.DurUs != int64(rt*1000) {
			return nil, fmt.Errorf("serve span %d lasts %d µs, want %v ms", k, s.DurUs, rt)
		}
		totalRT += rt
		totalHops += hops
		if cfg.KeepResponseTimes {
			m.ResponseTimesMs = append(m.ResponseTimesMs, rt)
		}
		source := s.Attrs["source"]
		if (hops > 0) != (source == obs.SourcePeer || source == obs.SourceOrigin) {
			return nil, fmt.Errorf("serve span %d: source %q with %v hops", k, source, hops)
		}
		switch source {
		case obs.SourceReplica:
			m.LocalReplica++
			continue
		case obs.SourceCache:
			m.CacheHits++
			m.PerServerHits[s.Edge]++
		case obs.SourcePeer:
			m.CacheMisses++
			m.RemoteServer++
		case obs.SourceOrigin:
			m.CacheMisses++
			m.OriginFetch++
		default:
			return nil, fmt.Errorf("serve span %d: invalid source %q", k, source)
		}
		m.PerServerLookups[s.Edge]++
	}
	if len(hopsOf) != 0 {
		return nil, fmt.Errorf("%d upstream spans without a serve parent", len(hopsOf))
	}
	m.finalize(cfg, totalRT, totalHops)
	return m, nil
}

// TestMetricsPublished checks the end-of-run registry snapshot.
func TestMetricsPublished(t *testing.T) {
	sc := smallScenario(15, 0)
	p := core.NewPlacement(sc.Sys) // pure caching: hits and misses happen
	cfg := fastConfig(true)
	cfg.Metrics = obs.NewRegistry()
	m := MustRun(context.Background(), sc, p, cfg, xrand.New(16))

	var total int64
	for _, src := range obs.Sources {
		total += cfg.Metrics.Counter("sim_requests_total", "", obs.Labels{"source": src}).Value()
	}
	if total != int64(m.Requests) {
		t.Errorf("sim_requests_total sums to %d, want %d", total, m.Requests)
	}
	hist := cfg.Metrics.Histogram("sim_response_time_ms", "", nil, obs.DefaultLatencyBuckets())
	if hist.Count() != int64(m.Requests) {
		t.Errorf("histogram count %d, want %d", hist.Count(), m.Requests)
	}
	if math.Abs(hist.Mean()-m.MeanRTMs) > 1e-6 {
		t.Errorf("histogram mean %v, metrics mean %v", hist.Mean(), m.MeanRTMs)
	}

	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sim_requests_total{source=\"cache\"}",
		"sim_edge_cache_hits_total{edge=\"0\"}",
		"sim_edge_cache_misses_total{edge=\"0\"}",
		"sim_response_time_ms_bucket",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/metrics output missing %s", want)
		}
	}
}
