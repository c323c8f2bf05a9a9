package placement

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// lineSystem builds a system with n servers at unit spacing on a line and
// m sites with unit-size objects (SiteBytes = objects). Origins sit at
// configurable distances; demand rows are supplied by the caller.
func lineSystem(n int, siteObjects []int, originCost [][]float64, demand [][]float64, capacity []int64) *core.System {
	sys := &core.System{
		CostServer: make([][]float64, n),
		CostOrigin: originCost,
		Demand:     demand,
		SiteBytes:  make([]int64, len(siteObjects)),
		Capacity:   capacity,
	}
	for j, L := range siteObjects {
		sys.SiteBytes[j] = int64(L)
	}
	for i := 0; i < n; i++ {
		sys.CostServer[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			sys.CostServer[i][k] = math.Abs(float64(i - k))
		}
	}
	return sys
}

func specsFor(siteObjects []int, theta, lambda float64) []lrumodel.SiteSpec {
	specs := make([]lrumodel.SiteSpec, len(siteObjects))
	for j, L := range siteObjects {
		specs[j] = lrumodel.SiteSpec{Objects: L, Theta: theta, Lambda: lambda}
	}
	return specs
}

// randomSystem builds a random valid metric system for stress tests.
func randomSystem(r *xrand.Source, n, m int, capFrac float64) (*core.System, []lrumodel.SiteSpec) {
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = r.Float64() * 20
	}
	siteObjects := make([]int, m)
	var totalBytes int64
	sys := &core.System{
		CostServer: make([][]float64, n),
		CostOrigin: make([][]float64, n),
		Demand:     make([][]float64, n),
		SiteBytes:  make([]int64, m),
		Capacity:   make([]int64, n),
	}
	originPos := make([]float64, m)
	for j := range originPos {
		originPos[j] = r.Float64() * 20
		siteObjects[j] = 50 + r.Intn(150)
		sys.SiteBytes[j] = int64(siteObjects[j])
		totalBytes += sys.SiteBytes[j]
	}
	for i := 0; i < n; i++ {
		sys.CostServer[i] = make([]float64, n)
		sys.CostOrigin[i] = make([]float64, m)
		sys.Demand[i] = make([]float64, m)
		sys.Capacity[i] = int64(capFrac * float64(totalBytes))
		for k := 0; k < n; k++ {
			sys.CostServer[i][k] = math.Round(math.Abs(pos[i] - pos[k]))
		}
		for j := 0; j < m; j++ {
			sys.CostOrigin[i][j] = math.Round(math.Abs(pos[i]-originPos[j])) + 2
			sys.Demand[i][j] = r.Float64() / float64(n*m)
		}
	}
	return sys, specsFor(siteObjects, 1.0, 0)
}

func TestGreedyGlobalPicksBestFirst(t *testing.T) {
	// Two servers, one site. Server 0 has 90% of the demand and the
	// origin is far from both; the first replica must land on server 0.
	sys := lineSystem(2,
		[]int{100},
		[][]float64{{10}, {10}},
		[][]float64{{0.9}, {0.1}},
		[]int64{100, 100},
	)
	res := GreedyGlobal(sys)
	if len(res.Steps) == 0 {
		t.Fatal("greedy placed nothing")
	}
	if res.Steps[0].Server != 0 || res.Steps[0].Site != 0 {
		t.Fatalf("first step %+v, want server 0 site 0", res.Steps[0])
	}
	// With both servers holding a replica the cost must be 0.
	if res.Placement.Replicas() != 2 || res.PredictedCost != 0 {
		t.Fatalf("replicas=%d cost=%v, want 2 replicas at cost 0",
			res.Placement.Replicas(), res.PredictedCost)
	}
}

func TestGreedyGlobalRespectsCapacity(t *testing.T) {
	// Capacity fits exactly one of the two sites per server.
	sys := lineSystem(2,
		[]int{100, 100},
		[][]float64{{5, 5}, {5, 5}},
		[][]float64{{0.3, 0.2}, {0.2, 0.3}},
		[]int64{100, 100},
	)
	res := GreedyGlobal(sys)
	if err := res.Placement.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Placement.Replicas() != 2 {
		t.Fatalf("replicas %d, want 2 (one per server)", res.Placement.Replicas())
	}
}

func TestGreedyGlobalCostMonotone(t *testing.T) {
	sys, _ := randomSystem(xrand.New(3), 10, 6, 0.2)
	res := GreedyGlobal(sys)
	prev := core.NewPlacement(sys).Cost(core.ZeroHitRatio)
	for _, s := range res.Steps {
		if s.PredictedCost > prev+1e-9 {
			t.Fatalf("cost rose: %v -> %v", prev, s.PredictedCost)
		}
		if s.Benefit <= 0 {
			t.Fatalf("non-positive benefit step %+v", s)
		}
		prev = s.PredictedCost
	}
	if math.Abs(res.PredictedCost-prev) > 1e-9 {
		t.Fatalf("final cost %v != last step cost %v", res.PredictedCost, prev)
	}
}

func TestGreedyGlobalBeatsRandomAndPopularity(t *testing.T) {
	// Greedy-global "achieves very good solution quality" [14]; it must
	// dominate the naive baselines on average. Allow one seed to tie.
	wins := 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		sys, _ := randomSystem(xrand.New(seed), 12, 8, 0.25)
		g := GreedyGlobal(sys).PredictedCost
		rnd := Random(sys, xrand.New(seed+100)).PredictedCost
		pop := Popularity(sys).PredictedCost
		if g <= rnd+1e-9 && g <= pop+1e-9 {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("greedy won only %d/%d trials", wins, trials)
	}
}

func TestHybridBenefitIsExactModelDelta(t *testing.T) {
	// The paper derives b_ij as the exact decrease of the model
	// objective; verify by replaying each hybrid step and comparing
	// PredictCost before/after.
	siteObjects := []int{80, 80, 80}
	specs := specsFor(siteObjects, 1.0, 0)
	sys := lineSystem(3,
		siteObjects,
		[][]float64{{6, 5, 7}, {5, 6, 6}, {7, 7, 5}},
		[][]float64{{0.2, 0.1, 0.05}, {0.1, 0.15, 0.1}, {0.05, 0.1, 0.15}},
		[]int64{160, 160, 160},
	)
	res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	replay := core.NewPlacement(sys)
	prev := PredictCost(replay, specs, 1)
	for _, s := range res.Steps {
		if err := replay.Replicate(s.Server, s.Site); err != nil {
			t.Fatal(err)
		}
		cur := PredictCost(replay, specs, 1)
		got := prev - cur
		if math.Abs(got-s.Benefit) > 0.02*math.Abs(s.Benefit)+1e-6 {
			t.Fatalf("step (%d,%d): benefit %v but model delta %v",
				s.Server, s.Site, s.Benefit, got)
		}
		prev = cur
	}
}

func TestHybridNoWorseThanPureCachingUnderModel(t *testing.T) {
	// Every hybrid step has positive model benefit, so the final model
	// cost is <= the pure-caching model cost.
	for seed := uint64(0); seed < 5; seed++ {
		sys, specs := randomSystem(xrand.New(seed), 8, 6, 0.15)
		res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		pure := PredictCost(core.NewPlacement(sys), specs, 1)
		if res.PredictedCost > pure+1e-9 {
			t.Fatalf("seed %d: hybrid model cost %v > pure caching %v",
				seed, res.PredictedCost, pure)
		}
		if err := res.Placement.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHybridPredictedCostMatchesPredictCost(t *testing.T) {
	sys, specs := randomSystem(xrand.New(11), 6, 5, 0.2)
	res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := PredictCost(res.Placement, specs, 1)
	if math.Abs(res.PredictedCost-recomputed) > 0.02*recomputed+1e-6 {
		t.Fatalf("reported %v vs recomputed %v", res.PredictedCost, recomputed)
	}
}

func TestHybridDegeneratesToGreedyWhenCacheUseless(t *testing.T) {
	// With an average object size far larger than any server's storage
	// the cache holds B=0 objects, every hit ratio is 0, and the hybrid
	// benefit reduces to the greedy-global benefit.
	sys, specs := randomSystem(xrand.New(13), 8, 6, 0.2)
	res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	g := GreedyGlobal(sys)
	if math.Abs(res.PredictedCost-g.PredictedCost) > 1e-9 {
		t.Fatalf("hybrid-with-useless-cache cost %v != greedy cost %v",
			res.PredictedCost, g.PredictedCost)
	}
	if res.Placement.Replicas() != g.Placement.Replicas() {
		t.Fatalf("replica counts differ: %d vs %d",
			res.Placement.Replicas(), g.Placement.Replicas())
	}
}

func TestHybridKeepsCacheWhenReplicasWorthless(t *testing.T) {
	// One server, one site, origin adjacent (cost 1), capacity equal to
	// the site. Caching absorbs most requests at zero extra cost, so
	// replication (benefit = (1-h)*r*1 minus losing the entire cache)
	// competes with h already near 1 — but replicating removes ALL
	// remaining cost, so the model may still pick it. Use two sites so
	// replication of one destroys the cache of the other.
	siteObjects := []int{100, 100}
	specs := specsFor(siteObjects, 1.0, 0)
	sys := lineSystem(1,
		siteObjects,
		[][]float64{{1, 1}},
		[][]float64{{0.5, 0.5}},
		[]int64{100},
	)
	res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Either decision is defensible a priori; what must hold is that
	// the hybrid choice is no worse than both pure alternatives.
	pureCache := PredictCost(core.NewPlacement(sys), specs, 1)
	rep := core.NewPlacement(sys)
	if err := rep.Replicate(0, 0); err != nil {
		t.Fatal(err)
	}
	oneReplica := PredictCost(rep, specs, 1)
	best := math.Min(pureCache, oneReplica)
	if res.PredictedCost > best+1e-6 {
		t.Fatalf("hybrid %v worse than best pure option %v", res.PredictedCost, best)
	}
}

func TestHybridErrors(t *testing.T) {
	sys, specs := randomSystem(xrand.New(19), 4, 3, 0.2)
	if _, err := Hybrid(sys, HybridConfig{Specs: specs[:2], AvgObjectBytes: 1}); err == nil {
		t.Fatal("spec-count mismatch accepted")
	}
	if _, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 0}); err == nil {
		t.Fatal("zero object size accepted")
	}
}

func TestNone(t *testing.T) {
	sys, _ := randomSystem(xrand.New(23), 5, 4, 0.2)
	res := None(sys)
	if res.Placement.Replicas() != 0 {
		t.Fatal("None created replicas")
	}
	for i := 0; i < sys.N(); i++ {
		if res.Placement.Free(i) != sys.Capacity[i] {
			t.Fatal("None consumed storage")
		}
	}
}

func TestAdHocReservesCache(t *testing.T) {
	sys, _ := randomSystem(xrand.New(29), 8, 6, 0.3)
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		res, err := AdHoc(sys, frac)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sys.N(); i++ {
			used := sys.Capacity[i] - res.Placement.Free(i)
			budget := int64(float64(sys.Capacity[i]) * (1 - frac))
			if used > budget {
				t.Fatalf("frac %v server %d: replicas use %d > budget %d",
					frac, i, used, budget)
			}
			if res.Placement.Free(i) < sys.Capacity[i]-budget {
				t.Fatalf("frac %v server %d: cache %d below reserved share",
					frac, i, res.Placement.Free(i))
			}
		}
		if err := res.Placement.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdHocExtremes(t *testing.T) {
	sys, _ := randomSystem(xrand.New(31), 6, 4, 0.3)
	// frac=1: everything is cache; identical to None.
	all, err := AdHoc(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if all.Placement.Replicas() != 0 {
		t.Fatal("AdHoc(1) created replicas")
	}
	// frac=0: identical to GreedyGlobal.
	none, err := AdHoc(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := GreedyGlobal(sys)
	if math.Abs(none.PredictedCost-g.PredictedCost) > 1e-9 {
		t.Fatalf("AdHoc(0) cost %v != greedy %v", none.PredictedCost, g.PredictedCost)
	}
	if _, err := AdHoc(sys, -0.1); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if _, err := AdHoc(sys, 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	sys, _ := randomSystem(xrand.New(37), 8, 6, 0.25)
	a := Random(sys, xrand.New(1))
	b := Random(sys, xrand.New(1))
	if a.PredictedCost != b.PredictedCost || len(a.Steps) != len(b.Steps) {
		t.Fatal("Random not deterministic for equal seeds")
	}
}

func TestPopularityPrefersHotSites(t *testing.T) {
	// Server 0 demands site 1 overwhelmingly; with room for one site,
	// popularity must pick site 1.
	sys := lineSystem(1,
		[]int{100, 100},
		[][]float64{{5, 5}},
		[][]float64{{0.1, 0.9}},
		[]int64{100},
	)
	res := Popularity(sys)
	if !res.Placement.Has(0, 1) {
		t.Fatal("popularity did not replicate the hottest site")
	}
	if res.Placement.Has(0, 0) {
		t.Fatal("popularity replicated the cold site without space")
	}
}

func TestSortSitesByDemand(t *testing.T) {
	got := sortSitesByDemand([]float64{0.1, 0.5, 0.3, 0.5})
	if got[0] != 1 && got[0] != 3 {
		t.Fatalf("order %v: first must be one of the 0.5 sites", got)
	}
	d := []float64{0.1, 0.5, 0.3, 0.5}
	for i := 1; i < len(got); i++ {
		if d[got[i]] > d[got[i-1]] {
			t.Fatalf("order %v not descending", got)
		}
	}
}

func BenchmarkGreedyGlobalPaperScale(b *testing.B) {
	sys, _ := randomSystem(xrand.New(1), 50, 20, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyGlobal(sys)
	}
}

// BenchmarkHybridCold times a cold Hybrid solve — the tables of
// EXPERIMENTS.md "Scale" and "Hit-ratio model ablation" are this
// function's output (regenerate line there).
//
//   - x1, x2, x4, x10: the §5.1 instance grown by scenario.Scale (x1 is
//     the paper's N=50, M=20, 2000 objects a site — the benchmark's
//     offline_place workload; x10 is one ~12–20 s solve on 2 vCPUs).
//   - model=*: each analytical hit-ratio model on 8 servers, 8 sites,
//     L = 2000; cost-delta is relative to eq1's final predicted cost.
//   - small: the random instance with 50–200 objects a site the oracle
//     comparisons use (many steps, cheap model).
//
// Every row reports a solve's verified cells (verified/op) and Equation
// (1) evaluations, the shared hit-ratio table's misses (evals/op): the
// work the lazy cold start's bounded tier saves.
func BenchmarkHybridCold(b *testing.B) {
	// solve is Hybrid, with the run's table and Explain hook in reach.
	solve := func(b *testing.B, sys *core.System, cfg HybridConfig) (cost float64, verified int, evals int64) {
		b.Helper()
		cfg.Explain = func(e ExplainStep) { verified += e.CellsVerified }
		shared := lrumodel.NewSharedTable()
		res, _, err := hybridSolve(sys, cfg, shared)
		if err != nil {
			b.Fatal(err)
		}
		return res.PredictedCost, verified, shared.Stats().Misses
	}
	// timed runs the case, reports its work and stops the timer, so a
	// baseline a filtered run skipped can still be solved before the
	// delta is reported.
	timed := func(b *testing.B, sys *core.System, cfg HybridConfig) (cost float64) {
		var verified int
		var evals int64
		for i := 0; i < b.N; i++ {
			cost, verified, evals = solve(b, sys, cfg)
		}
		b.StopTimer()
		b.ReportMetric(float64(verified), "verified/op")
		b.ReportMetric(float64(evals), "evals/op")
		return cost
	}
	costOf := func(b *testing.B, sys *core.System, cfg HybridConfig) float64 {
		cost, _, _ := solve(b, sys, cfg)
		return cost
	}

	for _, factor := range []int{1, 2, 4, 10} {
		b.Run(fmt.Sprintf("x%d", factor), func(b *testing.B) {
			sc, err := scenario.Build(scenario.Scale(scenario.Default(), factor))
			if err != nil {
				b.Fatal(err)
			}
			timed(b, sc.Sys, HybridConfig{Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes})
		})
	}

	w := workload.DefaultConfig()
	w.Servers = 8
	w.LowSites, w.MediumSites, w.HighSites = 2, 4, 2
	w.ObjectsPerSite = 2000
	msc, err := scenario.Build(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   2,
			StubNodesPerStub:      5,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.15,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eq1 := HybridConfig{Specs: msc.Work.Specs(), AvgObjectBytes: msc.Work.AvgObjectBytes, Model: string(lrumodel.ModelEq1)}
	var eq1Cost float64
	for _, kind := range lrumodel.ModelKinds() {
		cfg := eq1
		cfg.Model = string(kind)
		b.Run("model="+string(kind), func(b *testing.B) {
			cost := timed(b, msc.Sys, cfg)
			if kind == lrumodel.ModelEq1 {
				eq1Cost = cost
			} else if eq1Cost == 0 {
				eq1Cost = costOf(b, msc.Sys, eq1)
			}
			b.ReportMetric((cost-eq1Cost)/eq1Cost, "cost-delta")
		})
	}

	small, smallSpecs := randomSystem(xrand.New(1), 50, 20, 0.1)
	b.Run("small", func(b *testing.B) {
		timed(b, small, HybridConfig{Specs: smallSpecs, AvgObjectBytes: 1})
	})
}
