package placement

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// The heaps are the exact greedy: byte-identical to the scanning
// oracle's Result.Steps, enforced here across seeds × scales ×
// parallelism, from seeds that must bound their cells cold and warm.

// approxGrid is the seeds × scales grid the byte-identity is checked on.
var approxGrid = []struct {
	seed    uint64
	n, m    int
	capFrac float64
}{
	{1, 14, 9, 0.1},
	{2, 14, 9, 0.3},
	{3, 25, 12, 0.1},
	{4, 25, 12, 0.05},
	{5, 40, 16, 0.1},
}

// TestApproxZeroEpsilonByteIdenticalHybrid pins the heap run — through
// Hybrid and through Incremental's cold path — to the scanning oracle,
// byte for byte, on approxGrid.
func TestApproxZeroEpsilonByteIdenticalHybrid(t *testing.T) {
	for _, g := range approxGrid {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("seed=%d/n=%d/m=%d/par=%d", g.seed, g.n, g.m, par)
			t.Run(name, func(t *testing.T) {
				sys, specs := randomSystem(xrand.New(g.seed), g.n, g.m, g.capFrac)
				requireHeapMatchesOracle(t, sys, HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: par})
			})
		}
	}
}

// TestApproxZeroEpsilonByteIdenticalGreedy is the greedy-global twin.
func TestApproxZeroEpsilonByteIdenticalGreedy(t *testing.T) {
	for _, g := range approxGrid {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("seed=%d/n=%d/m=%d/par=%d", g.seed, g.n, g.m, par)
			t.Run(name, func(t *testing.T) {
				sys, _ := randomSystem(xrand.New(g.seed), g.n, g.m, g.capFrac)
				cfg := GreedyConfig{Parallelism: par}
				requireBitIdentical(t, greedyScan(sys, cfg), GreedyGlobalOpts(sys, cfg))
			})
		}
	}
}

// seedBoundTol is the relative slack TestOptimisticSeedsBoundExactCells
// allows a seed below its exact cell: 8 ulps of the cell's magnitude
// before the penalty cancels against it (the larger of the exact value
// and evalBenOpt), the rounding the two float chains may differ by where
// the bound is tight (the reference slice is the cell's own; ≈ 2.4 ulps
// is the largest shortfall seen on this grid).
const seedBoundTol = 8 * 0x1p-52

// TestOptimisticSeedsBoundExactCells checks the premise of the lazy
// start: a tightened seed upper-bounds the exact cell value, under every
// model, at every state the greedy passes through. After each prefix of
// the oracle's step list (the row state — placement, hit ratios, visible
// mass — advanced one step at a time) every row is re-sliced at that
// state, and every feasible cell's seed must be ≥ its Figure 2 benefit
// up to seedBoundTol. A solve then checks the bounded tier the same way
// after every step (requireBoundedCellsBound), and a warm repair checks
// both tiers once it re-weighted its clean rows to a new demand, and the
// bounded tier after every step it adds (requireWarmCellsBound).
func TestOptimisticSeedsBoundExactCells(t *testing.T) {
	for _, kind := range lrumodel.ModelKinds() {
		bounded, warmBounded := 0, 0
		for seed := uint64(1); seed <= 3; seed++ {
			for _, capFrac := range []float64{0.1, 0.2, 0.3} {
				name := fmt.Sprintf("model=%s/seed=%d/cap=%v", kind, seed, capFrac)
				t.Run(name, func(t *testing.T) {
					r := xrand.New(seed)
					sys, specs := randomSystem(r, 14, 9, capFrac)
					cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1, Model: string(kind), Parallelism: 1}
					scan, err := hybridOracle(sys, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(scan.Steps) == 0 {
						t.Fatal("oracle took no steps")
					}
					st, err := newHybridState(sys, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					cells := requireSeedsBound(t, st, 0)
					for k, s := range scan.Steps {
						i := s.Server
						mustReplicate(st.p, i, s.Site)
						st.visMass[i] -= st.preds[i].SitePopularity(s.Site)
						st.rowHitRatios(i, nil)
						cells += requireSeedsBound(t, st, k+1)
					}
					if cells == 0 {
						t.Fatal("no feasible cell checked")
					}
					bounded += requireBoundedCellsBound(t, sys, cfg)
					warmBounded += requireWarmCellsBound(t, sys, cfg)
				})
			}
		}
		if bounded == 0 || warmBounded == 0 {
			t.Fatalf("model %s: %d cold and %d warm bounded cells checked, want some of each", kind, bounded, warmBounded)
		}
	}
}

// requireSeedsBound re-slices every row of st at its current state and
// checks each feasible cell's seed against its exact value; it returns
// the number of cells checked.
func requireSeedsBound(t *testing.T, st *hybridState, steps int) int {
	t.Helper()
	sys, p, m := st.sys, st.p, st.m
	st.prepareOptimistic() // re-slices every row at this state
	cells := 0
	for i := 0; i < st.n; i++ {
		for j := 0; j < m; j++ {
			if !p.CanReplicate(i, j) {
				continue
			}
			cells++
			exact := hybridBenefit(sys, p, st.preds, st.h, st.visMass, i, j) - updatePenalty(sys, st.cfg.UpdateRates, i, j)
			seed := st.evalBenOptTight(i, j)
			scale := math.Max(math.Abs(exact), math.Abs(st.evalBenOpt(i, j)))
			if exact-seed > seedBoundTol*scale {
				t.Fatalf("after %d steps: seed (%d,%d) = %v below exact %v (rel %.3g)",
					steps, i, j, seed, exact, (exact-seed)/scale)
			}
		}
	}
	return cells
}

// requireCellsBound checks that every feasible bounded cell of st —
// and, with seeds, every seed — is at or above its exact value under
// exactPreds, up to seedBoundTol; it returns the number of bounded cells
// checked. A bounded cell is checked at its stored value, a seed at the
// value its row's live penalty totals give. exactPreds are the run's
// model state in predictors of their own, so checking writes no memo
// entry the run would read.
func requireCellsBound(t *testing.T, st *hybridState, exactPreds []*lrumodel.Predictor, seeds bool, when string) int {
	t.Helper()
	sys, p := st.sys, st.p
	checked := 0
	for i := 0; i < st.n; i++ {
		for j := 0; j < st.m; j++ {
			s := st.cellState(i, j)
			if s == cellVerified || (s == cellSeed && !seeds) || !p.CanReplicate(i, j) {
				continue
			}
			v := st.ben[i][j]
			if s == cellSeed {
				v = st.evalBenOptTight(i, j)
			} else {
				checked++
			}
			exact := hybridBenefit(sys, p, exactPreds, st.h, st.visMass, i, j) - updatePenalty(sys, st.cfg.UpdateRates, i, j)
			scale := math.Max(math.Abs(exact), math.Abs(st.evalBenOpt(i, j)))
			if exact-v > seedBoundTol*scale {
				t.Fatalf("%s: cell (%d,%d) in state %d = %v below exact %v (rel %.3g)",
					when, i, j, s, v, exact, (exact-v)/scale)
			}
		}
	}
	return checked
}

// modelsFor builds one private predictor per row of demand.
func modelsFor(st *hybridState, cfg HybridConfig, demand [][]float64) []*lrumodel.Predictor {
	preds := make([]*lrumodel.Predictor, st.n)
	for i := range preds {
		preds[i] = mustModel(st.model, cfg.Specs, demand[i], cfg.AvgObjectBytes, st.sys.Capacity[i], nil)
	}
	return preds
}

// requireBoundedCellsBound runs a lazy cold solve and, after every step
// — so after the step's SN events re-weighted the rows its replica
// moved closer to — checks every bounded cell (requireCellsBound). The
// stored value is never re-bounded across an SN event, only re-run
// arithmetically against its slice, so this is where the tier's
// soundness could break. It returns the number of bounded cells checked.
func requireBoundedCellsBound(t *testing.T, sys *core.System, cfg HybridConfig) int {
	t.Helper()
	st, err := newHybridState(sys, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactPreds := modelsFor(st, cfg, sys.Demand)
	checked := 0
	st.cfg.Explain = func(e ExplainStep) {
		checked += requireCellsBound(t, st, exactPreds, false, fmt.Sprintf("after step %d", e.Iter))
	}
	st.prepareOptimistic()
	hybridHeapRun(st)
	return checked
}

// requireWarmCellsBound captures a cold solve of sys, repairs it towards
// a new demand — row 0 rebuilt, every other row kept with its demand
// moved by up to ±4% — and checks every seed and bounded cell right
// after the repair, then every bounded cell after each step the warm run
// adds. The exact values are the kept model state's: a clean row's
// model reads the demand it was built against, a rebuilt row's the new
// one. The repair re-weights a clean row's penalty totals and re-runs
// its bounded cells against the new demand without re-bounding either,
// so this is where a warm round's soundness could break. It returns the
// number of bounded cells checked.
func requireWarmCellsBound(t *testing.T, sys *core.System, cfg HybridConfig) int {
	t.Helper()
	_, warm, _, err := Incremental(nil, sys, IncrementalConfig{HybridConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, sys.N())
	dirty[0] = true
	r := xrand.New(99)
	drifted := withDemand(sys, func(d [][]float64) {
		for i := range d {
			for j := range d[i] {
				if dirty[i] {
					d[i][j] *= 1 + 3*r.Float64()
				} else {
					d[i][j] *= 1 + 0.04*(2*r.Float64()-1)
				}
			}
		}
	})
	built := make([][]float64, sys.N())
	for i := range built {
		built[i] = warm.demand[i]
		if dirty[i] {
			built[i] = drifted.Demand[i]
		}
	}
	exactPreds := modelsFor(warm.st, cfg, built)
	st, err := repairState(warm, drifted, cfg, dirty)
	if err != nil {
		t.Fatal(err)
	}
	checked := requireCellsBound(t, st, exactPreds, true, "after the repair")
	st.cfg.Explain = func(e ExplainStep) {
		checked += requireCellsBound(t, st, exactPreds, false, fmt.Sprintf("after warm step %d", e.Iter))
	}
	hybridHeapRun(st)
	return checked
}

// TestExactColdVerifiesFewCells is the deterministic work guard on the
// lazy cold start, on the §5.1 smoke instance (the shape the
// edge workloads' reference section solves, 200 objects a site), run
// serially so that every count repeats exactly:
//
//   - Bounded cells: some — a surfacing seed is re-keyed at its own
//     Jensen slice before anything evaluates the model: 53 here.
//   - Verified cells: at most steps + 3. Only cells still on top at
//     their own bound pay the exact slice: 13 here, for 13 steps (53
//     when a surfacing seed was verified at once).
//   - Equation (1) evaluations (shared-table misses): at most n·m for the
//     initial hit ratios, plus m per verified cell and m per step (the
//     chosen row's hit ratios) — 1202 here, of a bound of 1520 (1979 when
//     every surfacing seed was verified).
func TestExactColdVerifiesFewCells(t *testing.T) {
	cfg := scenario.Default()
	cfg.Workload.ObjectsPerSite = 200
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounded, verified, steps := 0, 0, 0
	shared := lrumodel.NewSharedTable()
	res, _, err := hybridSolve(sc.Sys, HybridConfig{
		Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes, Parallelism: 1,
		Explain: func(e ExplainStep) { bounded += e.CellsBounded; verified += e.CellsVerified; steps++ },
	}, shared)
	if err != nil {
		t.Fatal(err)
	}
	if steps != len(res.Steps) || steps == 0 {
		t.Fatalf("%d explain records for %d steps", steps, len(res.Steps))
	}
	n, m := sc.Sys.N(), sc.Sys.M()
	if bounded == 0 {
		t.Fatal("no seed was bounded before it was verified")
	}
	if verified > steps+3 {
		t.Fatalf("exact cold solve verified %d cells for %d steps, want ≤ %d", verified, steps, steps+3)
	}
	if evals, most := shared.Stats().Misses, n*m+m*(verified+steps); evals > int64(most) {
		t.Fatalf("exact cold solve evaluated Equation (1) %d times (%d verified cells, %d steps), want ≤ %d",
			evals, verified, steps, most)
	}
}

// TestApproxPlacementInvariants checks the heap run's output is a
// structurally valid placement whose reported PredictedCost is the real
// objective of the final replica matrix (the cost is always computed
// from live state, never from stored benefit entries), and that the
// deprecated HybridConfig.Epsilon changes nothing: a run at 1e-2 returns
// the exact run's Result bit for bit.
func TestApproxPlacementInvariants(t *testing.T) {
	sys, specs := randomSystem(xrand.New(7), 30, 12, 0.1)
	cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1}
	res, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := PredictCost(res.Placement, cfg.Specs, cfg.AvgObjectBytes)
	if math.Abs(got-res.PredictedCost) > 1e-9*math.Abs(got) {
		t.Fatalf("PredictedCost %v, recomputed %v", res.PredictedCost, got)
	}
	cfg.Epsilon = 1e-2
	ignored, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, res, ignored)
}

// TestApproxExplainEngineLabels checks the Explain stream labels every
// step of a cold run "lazy".
func TestApproxExplainEngineLabels(t *testing.T) {
	sys, specs := randomSystem(xrand.New(3), 30, 12, 0.1)
	var labels []string
	cfg := HybridConfig{
		Specs: specs, AvgObjectBytes: 1,
		Explain: func(s ExplainStep) { labels = append(labels, s.Engine) },
	}
	res, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(res.Steps) {
		t.Fatalf("%d explain records for %d steps", len(labels), len(res.Steps))
	}
	for _, l := range labels {
		if l != "lazy" {
			t.Fatalf("engine label %q, want lazy", l)
		}
	}
}

// remoteRowMajor is lines 14–17 of Figure 2 as the row-major loop over
// the live tables: the reference remoteBenefit's column copies are held
// to.
func remoteRowMajor(st *hybridState, b float64, i, j int) float64 {
	p, sys, h := st.p, st.sys, st.h
	for s := 0; s < st.n; s++ {
		if s == i || p.Has(s, j) {
			continue
		}
		if dc := p.NearestCost(s, j) - sys.CostServer[s][i]; dc > 0 {
			b += dc * (1 - h[s][j]) * sys.Demand[s][j]
		}
	}
	return b
}

// requireRemoteColumns checks remoteBenefit against remoteRowMajor on
// every cell of st, bit for bit, from a few starting sums.
func requireRemoteColumns(t *testing.T, st *hybridState, when string) {
	t.Helper()
	for i := 0; i < st.n; i++ {
		for j := 0; j < st.m; j++ {
			for _, b := range []float64{0, 0.37, -1e-3} {
				got, want := st.remoteBenefit(b, i, j), remoteRowMajor(st, b, i, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: cell (%d,%d) from %v: column-major %v, row-major %v", when, i, j, b, got, want)
				}
			}
		}
	}
}

// TestRemoteColumnsMatchRowMajor: the column-major remote term equals
// the row-major loop after a cold start, after every accept of the cold
// run, after a warm repair's refresh and after every accept of the warm
// run — on co-located servers (zero costs between distinct servers)
// and on a scenario instance.
func TestRemoteColumnsMatchRowMajor(t *testing.T) {
	type instance struct {
		sys *core.System
		cfg HybridConfig
	}
	var cases []instance
	for _, seed := range []uint64{3, 11} {
		sys, specs := randomSystem(xrand.New(seed), 12, 7, 0.25)
		cases = append(cases, instance{sys, HybridConfig{Specs: specs, AvgObjectBytes: 1}})
	}
	sys, specs := randomSystem(xrand.New(5), 10, 6, 0.25)
	twin := withDemand(sys, nil)
	twin.CostServer = make([][]float64, sys.N())
	for i := range twin.CostServer {
		twin.CostServer[i] = append([]float64(nil), sys.CostServer[i]...)
	}
	twin.CostServer[0][1], twin.CostServer[1][0] = 0, 0 // servers 0 and 1 co-located
	cases = append(cases, instance{twin, HybridConfig{Specs: specs, AvgObjectBytes: 1}})
	scfg := scenario.Default()
	scfg.Workload.ObjectsPerSite = 200
	sc, err := scenario.Build(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, instance{sc.Sys, HybridConfig{Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes}})

	warmAccepts := 0
	for c, in := range cases {
		accepts := 0
		st, err := newHybridState(in.sys, in.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.prepareOptimistic()
		requireRemoteColumns(t, st, fmt.Sprintf("case %d: cold start", c))
		st.cfg.Explain = func(e ExplainStep) {
			accepts++
			requireRemoteColumns(t, st, fmt.Sprintf("case %d: cold step %d", c, e.Iter))
		}
		res := hybridHeapRun(st)
		if accepts == 0 {
			t.Fatalf("case %d: the cold run accepted nothing", c)
		}
		st.cfg.Explain = nil
		warm := captureWarmState(st, res, nil, nil)

		dirty := make([]bool, in.sys.N())
		dirty[0], dirty[in.sys.N()-1] = true, true
		r := xrand.New(uint64(c) + 40)
		drifted := withDemand(in.sys, func(d [][]float64) {
			for i := range d {
				for j := range d[i] {
					if dirty[i] {
						d[i][j] *= 0.2 + 3*r.Float64()
					} else {
						d[i][j] *= 1 + 0.02*(2*r.Float64()-1)
					}
				}
			}
		})
		wst, err := repairState(warm, drifted, in.cfg, dirty)
		if err != nil {
			t.Fatal(err)
		}
		requireRemoteColumns(t, wst, fmt.Sprintf("case %d: warm refresh", c))
		wst.cfg.Explain = func(e ExplainStep) {
			warmAccepts++
			requireRemoteColumns(t, wst, fmt.Sprintf("case %d: warm step %d", c, e.Iter))
		}
		hybridHeapRun(wst)
	}
	if warmAccepts == 0 {
		t.Fatal("no warm run accepted a replica")
	}
}
