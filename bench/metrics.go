package main

import (
	"math"
	"sort"
)

// metricDef is one named metric of the ledger. The end-to-end list is
// mirrored into BENCHMARK.json (TestBenchmarkJSONMatches keeps the two
// from drifting); Bound is the share of the parent's median by which the
// metric may get worse before a change is rejected.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Family is the section that measures the metric: "live", "place" or
	// "sim"; "" for setup_s, which the native section's set-up gives.
	Family string
	// Native lists the workloads the metric is about. The benchmark
	// contract wants every run to print every end-to-end metric, so the
	// other workloads report it from a small reference section
	// (workloads.go); -compare gates native rows only.
	Native []string
	// Memory is the share of the metric's time that stretches with the
	// speedometer's reading: 0 for a number that does not depend on the
	// host's memory system, 1 for one that slows exactly as the
	// speedometer does. The shares are fitted to this host from the runs in
	// calibration.json (README.md) and frozen here.
	Memory float64
}

func (d metricDef) nativeOn(workload string) bool {
	for _, name := range d.Native {
		if name == workload {
			return true
		}
	}
	return false
}

// atReference converts v, measured while the speedometer read s
// milliseconds, to what it would be at speedometerRef, given the share of
// the metric's time that is memory-bound: a time shrinks by the stretch of
// that share, a rate ("higher is better") grows by it.
func (d metricDef) atReference(v, share, s float64) float64 {
	stretch := 1 + share*(s/speedometerRef-1)
	if d.Better == "higher" {
		return v * stretch
	}
	return v / stretch
}

var (
	everyWorkload = []string{"edge_hot", "edge_cold", "edge_churn", "offline_place", "offline_sim"}
	liveWorkloads = []string{"edge_hot", "edge_cold", "edge_churn"}
)

// endToEnd is what a user of the system sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "", everyWorkload, 0.55},
	{"goodput_rps", "1/s", "higher", 0.20, "live", liveWorkloads, 0.45},
	{"lat_p50_ms", "ms", "lower", 0.25, "live", liveWorkloads, 0.55},
	{"reconcile_ms", "ms", "lower", 0.25, "live", []string{"edge_churn"}, 0.45},
	{"place_cold_s", "s", "lower", 0.15, "place", []string{"offline_place"}, 0.30},
	{"place_warm_ms", "ms", "lower", 0.25, "place", []string{"offline_place"}, 0.50},
	{"place_cost_rel", "ratio", "lower", 0.005, "place", []string{"offline_place"}, 0},
	{"sim_rps", "1/s", "higher", 0.20, "sim", []string{"offline_sim"}, 0.25},
	{"sim_par_rps", "1/s", "higher", 0.15, "sim", []string{"offline_sim"}, 0.20},
}

// perLayer names the budget: one module per prefix, measured from
// outside (timing public calls on the workload's own inputs, reading
// the components' registries, or at the client keyed on X-Cdn-Source).
var perLayer = []metricDef{
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.dynamic_next_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.lru_op_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_kreq", Unit: "count", Better: "lower"},
	{Name: "lrumodel.build_ms", Unit: "ms", Better: "lower"},
	{Name: "lrumodel.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "lrumodel.shared_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "placement.steps", Unit: "count", Better: "lower"},
	{Name: "placement.heap_pops", Unit: "count", Better: "lower"},
	{Name: "placement.stale_reevals", Unit: "count", Better: "lower"},
	{Name: "placement.superseded", Unit: "count", Better: "lower"},
	{Name: "placement.approx_s", Unit: "s", Better: "lower"},
	{Name: "placement.approx_cost_delta", Unit: "ratio", Better: "lower"},
	{Name: "placement.greedy_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.warm_dirty_rows", Unit: "count", Better: "lower"},
	{Name: "placement.predict_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replicate_ns", Unit: "ns", Better: "lower"},
	{Name: "core.clone_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.local_frac", Unit: "ratio", Better: "higher"},
	{Name: "sim.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.dynamic_rps", Unit: "1/s", Better: "higher"},
	{Name: "sim.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "http.ping_p50_us", Unit: "us", Better: "lower"},
	{Name: "body.pattern_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "edge.bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "edge.replica_p50_us", Unit: "us", Better: "lower"},
	{Name: "edge.cache_p50_us", Unit: "us", Better: "lower"},
	{Name: "edge.peer_p50_us", Unit: "us", Better: "lower"},
	{Name: "edge.origin_p50_us", Unit: "us", Better: "lower"},
	{Name: "edge.share_replica", Unit: "ratio", Better: "higher"},
	{Name: "edge.share_cache", Unit: "ratio", Better: "higher"},
	{Name: "edge.share_peer", Unit: "ratio", Better: "lower"},
	{Name: "edge.share_origin", Unit: "ratio", Better: "lower"},
	{Name: "edge.closed_mean_us", Unit: "us", Better: "lower"},
	{Name: "edge.source_mix_us", Unit: "us", Better: "lower"},
	{Name: "edge.retries", Unit: "count", Better: "lower"},
	{Name: "edge.errors", Unit: "count", Better: "lower"},
	{Name: "edge.notfound", Unit: "count", Better: "lower"},
	{Name: "origin.direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "origin.fetches_per_kreq", Unit: "count", Better: "lower"},
	{Name: "edge.miss_overhead_us", Unit: "us", Better: "lower"},
	{Name: "control.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "control.roll_demand_us", Unit: "us", Better: "lower"},
	{Name: "control.reconcile_applied_frac", Unit: "ratio", Better: "higher"},
	{Name: "control.reports_per_s", Unit: "1/s", Better: "higher"},
	{Name: "control.audit_duration_ms", Unit: "ms", Better: "lower"},
	{Name: "client.goodput_measured_rps", Unit: "1/s", Better: "higher"},
	{Name: "client.lat_p50_measured_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p99_quiet_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_samples", Unit: "count", Better: "higher"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.verify_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "rt.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "rt.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "rt.speedometer_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.client_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.serve_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.health_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.failover_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.upstream_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.retry_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.origin_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number; the JSON shape is the contract's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects a run's metric values by name.
type results map[string]float64

// median returns the middle of vs (mean of the two middles when even);
// 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileSorted is the nearest-rank q-quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns the first and third quartile of vs (at least two
// values) as Python's statistics.quantiles(vs, n=4) computes them.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0, 4] at the ends: extrapolation
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// The host this benchmark runs on is a two-vCPU VM on which identical
// compute-bound work runs in one of two modes, a fast one and one about
// 1.8x slower, switching within milliseconds; the share of time spent in
// the slow mode is a neighbour's doing and moves between a few percent
// and more than half over seconds to minutes (README.md has the
// measurement). A mean or a median over a run follows that share. Every
// timing is therefore cut into short pieces of identical work — the same
// requests, the same solve, the same stretch of a simulation — each
// repeated once per round, and reported from the quiet side: the lower
// quartile of a piece's repetitions, which sits in the fast mode as long
// as a quarter of the rounds found it there.

// quietQuartile is the lower quartile (nearest rank) of repeated timings
// of one piece of work; 0 for none.
func quietQuartile(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.25)
}

// quietSum adds up the quiet quartile of every piece: pieces[k] holds the
// timings of piece k, one per round.
func quietSum(pieces [][]float64) float64 {
	var sum float64
	for _, reps := range pieces {
		sum += quietQuartile(reps)
	}
	return sum
}

// appendPieces adds one round's piece timings to pieces[k].
func appendPieces(pieces [][]float64, round []float64) [][]float64 {
	if pieces == nil {
		pieces = make([][]float64, len(round))
	}
	for k, t := range round {
		pieces[k] = append(pieces[k], t)
	}
	return pieces
}
