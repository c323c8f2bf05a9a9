package main

import "fmt"

// workloadDef is one workload. A workload is about one family — a live
// deployment driven over HTTP, placement solves, or simulator runs — and
// its Native section has the workload's own design and size. The
// benchmark contract wants every run to print every metric, so a run also
// measures the other two families at the small size below; those reference
// rows say nothing about the workload and -compare leaves them out.
type workloadDef struct {
	Name string
	// Why is the one line BENCHMARK.json records.
	Why string
	// Native is "live", "place" or "sim".
	Native string
	Live   liveSpec
	Place  placeSpec
	Sim    simSpec
	// Memory holds the memory shares (metricDef.Memory) of the metrics that
	// are more or less memory-bound on this workload than elsewhere.
	Memory map[string]float64
}

// The small size of each family: what a workload runs of the families it
// is not about, and what -smoke runs of all three.
var (
	smallLive = liveSpec{
		Cluster: clusterSpec{CapacityFrac: 0.15},
		Warmup:  1000, Closed: 32 * pieceReqs, Open: 1000, OpenRate: 5000, EventEvery: 500,
	}
	smallPlace = placeSpec{Scale: 0}
	smallSim   = simSpec{Scale: 0, Requests: 100_000, Warmup: 50_000, Draws: 100_000}
)

// nativeLive sizes a live workload: a closed-loop list, then an open-loop
// list at about 40 % of the workload's goodput as measured, each about half
// a second long, with a control event every 5 000 requests of the sequence
// the two lists make.
func nativeLive(capacityFrac float64, churn bool, closed, open int, openRate float64, mix func(map[string]float64) error) liveSpec {
	return liveSpec{
		Cluster: clusterSpec{CapacityFrac: capacityFrac, Churn: churn},
		Warmup:  10_000, Closed: closed, Open: open, OpenRate: openRate, EventEvery: 5000, Mix: mix,
	}
}

var workloads = []workloadDef{
	{
		Name:   "edge_hot",
		Why:    "2 edges at capacity 0.60: at least 85% replica or cache hits, so path parse, the LRU mutex, body generation and the response write do the work and the upstream hop idles",
		Native: "live",
		Live: nativeLive(0.60, false, 320*pieceReqs, 5000, 8000, func(s map[string]float64) error {
			if local := s["replica"] + s["cache"]; local < 0.85 {
				return fmt.Errorf("replica+cache share %.3f < 0.85", local)
			}
			return nil
		}),
		Place: smallPlace, Sim: smallSim,
	},
	{
		Name:   "edge_cold",
		Why:    "same cluster at capacity 0.02: most requests miss and cross a second HTTP hop, so upstream choice, the edge's client, the origin handler and LRU eviction do the work",
		Native: "live",
		Live: nativeLive(0.02, false, 160*pieceReqs, 2500, 4000, func(s map[string]float64) error {
			if remote := s["peer"] + s["origin"]; remote < 0.5 {
				return fmt.Errorf("peer+origin share %.3f < 0.5", remote)
			}
			return nil
		}),
		Place: smallPlace, Sim: smallSim,
	},
	{
		Name:   "edge_churn",
		Why:    "capacity 0.15 plus writes: every 5000 requests the request-to-edge and request-to-site mappings rotate, 1% of the catalog changes and Reconcile, hysteresis off, pushes replica swaps under traffic",
		Native: "live",
		Live:   nativeLive(0.15, true, 320*pieceReqs, 5000, 6000, nil),
		Place:  smallPlace, Sim: smallSim,
	},
	{
		Name:   "offline_place",
		Why:    "the paper's setup (N=50, M=20): cold Hybrid solves and warm Incremental repairs round a cycle of seeded 5% demand drifts; lrumodel evaluation and the placement heap do the work, the simulator none",
		Native: "place",
		Live:   smallLive, Place: placeSpec{Scale: 1}, Sim: smallSim,
	},
	{
		Name:   "offline_sim",
		Why:    "paper setup x2 (N=100, M=40), placement built in set-up: sim.Run and sim.RunParallel of 1M requests each; Stream.Next, cache.LRU and Placement.Nearest do the work, placement none",
		Native: "sim",
		Live:   smallLive, Place: smallPlace, Sim: simSpec{Scale: 2, Requests: 800_000, Warmup: 200_000, Draws: 2_000_000},
		// A hundred servers' caches, against fifty small ones in the small
		// instance: twice as much of a request's time is memory.
		Memory: map[string]float64{"sim_rps": 0.55},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// smoke shrinks a workload's native section to the small size, keeping
// its deployment: every code path, no meaningful timing.
func (w workloadDef) smoke() workloadDef {
	cluster := w.Live.Cluster
	w.Live, w.Place, w.Sim = smallLive, smallPlace, smallSim
	w.Live.Cluster = cluster
	return w
}
