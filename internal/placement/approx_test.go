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

// The heaps carry two contracts: at ε = 0 they are the exact greedy —
// byte-identical to the scanning oracle's Result.Steps — and at ε > 0
// the final predicted cost sits within ε (relative) of the exact run's.
// Both are enforced here across seeds × scales × parallelism.

// approxGrid is the seeds × scales grid the ε contracts are checked on.
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

// TestApproxZeroEpsilonByteIdenticalHybrid pins the ε = 0 heap run —
// through Hybrid and through Incremental's cold path — to the scanning
// oracle, byte for byte, on the grid the ε > 0 contracts use.
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

// TestOptimisticSeedsBoundExactCells checks the premise of the lazy cold
// start: a tightened seed upper-bounds the exact cell value, under every
// model, at every state the greedy passes through. After each prefix of
// the oracle's step list (the row state — placement, hit ratios, visible
// mass — advanced one step at a time) every row is re-sliced at that
// state, and every feasible cell's seed must be ≥ its Figure 2 benefit
// up to seedBoundTol. A solve then checks the bounded tier the same way
// after every step (requireBoundedCellsBound).
func TestOptimisticSeedsBoundExactCells(t *testing.T) {
	for _, kind := range lrumodel.ModelKinds() {
		bounded := 0
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
				})
			}
		}
		if bounded == 0 {
			t.Fatalf("model %s: no bounded cell checked", kind)
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

// requireBoundedCellsBound runs a lazy cold solve and, after every step
// — so after the step's SN events re-weighted the rows its replica
// moved closer to — checks that every feasible bounded cell's stored
// value is at or above its exact value, up to seedBoundTol. The stored
// value is never re-bounded across an SN event, only re-run
// arithmetically against its slice, so this is where the tier's
// soundness could break. The exact values come from predictors of their
// own, so checking writes no memo entry the run would read. It returns
// the number of bounded cells checked.
func requireBoundedCellsBound(t *testing.T, sys *core.System, cfg HybridConfig) int {
	t.Helper()
	st, err := newHybridState(sys, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactPreds := make([]lrumodel.Model, st.n)
	for i := range exactPreds {
		exactPreds[i] = mustModel(st.model, cfg.Specs, sys.Demand[i], cfg.AvgObjectBytes, sys.Capacity[i], nil)
	}
	checked := 0
	st.cfg.Explain = func(e ExplainStep) {
		p := st.p
		for i := 0; i < st.n; i++ {
			for j := 0; j < st.m; j++ {
				if st.cellState(i, j) != cellBounded || !p.CanReplicate(i, j) {
					continue
				}
				checked++
				exact := hybridBenefit(sys, p, exactPreds, st.h, st.visMass, i, j) - updatePenalty(sys, cfg.UpdateRates, i, j)
				stored := st.ben[i][j]
				scale := math.Max(math.Abs(exact), math.Abs(st.evalBenOpt(i, j)))
				if exact-stored > seedBoundTol*scale {
					t.Fatalf("after step %d: bounded cell (%d,%d) = %v below exact %v (rel %.3g)",
						e.Iter, i, j, stored, exact, (exact-stored)/scale)
				}
			}
		}
	}
	st.prepareOptimistic()
	hybridHeapRun(st, 0)
	return checked
}

// TestExactColdVerifiesFewCells is the deterministic work guard on the
// lazy cold start at ε = 0, on the §5.1 smoke instance (the shape the
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
	res, err := hybridSolve(sc.Sys, HybridConfig{
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

// TestApproxFinalCostWithinEpsilon enforces the quality guarantee: for
// ε ∈ {1e-3, 1e-2} the approximate final predicted cost exceeds the
// exact engine's by at most ε (relative). The approximate engine can
// also land BELOW the exact engine's cost — greedy is not optimal, and
// a drift-accepted off-order step sometimes helps — so only the upside
// is bounded.
func TestApproxFinalCostWithinEpsilon(t *testing.T) {
	for _, g := range approxGrid {
		for _, eps := range []float64{1e-3, 1e-2} {
			name := fmt.Sprintf("seed=%d/n=%d/m=%d/eps=%v", g.seed, g.n, g.m, eps)
			t.Run(name, func(t *testing.T) {
				sys, specs := randomSystem(xrand.New(g.seed), g.n, g.m, g.capFrac)
				cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1}
				exact, err := Hybrid(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Epsilon = eps
				approx, err := Hybrid(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if exact.PredictedCost <= 0 {
					t.Fatalf("degenerate exact cost %v", exact.PredictedCost)
				}
				rel := (approx.PredictedCost - exact.PredictedCost) / exact.PredictedCost
				if rel > eps {
					t.Fatalf("approx cost %v exceeds exact %v by %.3g > eps %v",
						approx.PredictedCost, exact.PredictedCost, rel, eps)
				}
			})
		}
	}
}

// TestApproxGreedyFinalCostWithinEpsilon is the greedy-engine twin of
// the quality guarantee.
func TestApproxGreedyFinalCostWithinEpsilon(t *testing.T) {
	for _, g := range approxGrid {
		for _, eps := range []float64{1e-3, 1e-2} {
			name := fmt.Sprintf("seed=%d/n=%d/m=%d/eps=%v", g.seed, g.n, g.m, eps)
			t.Run(name, func(t *testing.T) {
				sys, _ := randomSystem(xrand.New(g.seed), g.n, g.m, g.capFrac)
				exact := GreedyGlobalOpts(sys, GreedyConfig{})
				approx := GreedyGlobalOpts(sys, GreedyConfig{Epsilon: eps})
				if exact.PredictedCost <= 0 {
					t.Fatalf("degenerate exact cost %v", exact.PredictedCost)
				}
				rel := (approx.PredictedCost - exact.PredictedCost) / exact.PredictedCost
				if rel > eps {
					t.Fatalf("approx cost %v exceeds exact %v by %.3g > eps %v",
						approx.PredictedCost, exact.PredictedCost, rel, eps)
				}
			})
		}
	}
}

// TestApproxPlacementInvariants checks the approximate engine's output
// is a structurally valid placement whose reported PredictedCost is the
// real objective of the final replica matrix (the cost is always
// computed from live state, never from drifted benefit entries).
func TestApproxPlacementInvariants(t *testing.T) {
	sys, specs := randomSystem(xrand.New(7), 30, 12, 0.1)
	cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1, Epsilon: 1e-2}
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
}

// TestApproxExplainEngineLabels checks the Explain stream labels a run
// by its ε ("approx" above 0, "lazy" at 0) and, for ε > 0, that the
// drift machinery visibly engaged on a system large enough to defer
// work.
func TestApproxExplainEngineLabels(t *testing.T) {
	sys, specs := randomSystem(xrand.New(3), 30, 12, 0.1)

	var labels []string
	deferredTotal := 0
	cfg := HybridConfig{
		Specs: specs, AvgObjectBytes: 1, Epsilon: 1e-2,
		Explain: func(s ExplainStep) {
			labels = append(labels, s.Engine)
			deferredTotal += s.RowsDeferred
			if s.DriftBudgetUsed < 0 || s.DriftBudgetUsed > 1 {
				t.Errorf("step %d: drift budget used %v out of [0,1]", s.Iter, s.DriftBudgetUsed)
			}
		},
	}
	res, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(res.Steps) {
		t.Fatalf("%d explain records for %d steps", len(labels), len(res.Steps))
	}
	for _, l := range labels {
		if l != "approx" {
			t.Fatalf("engine label %q, want approx", l)
		}
	}
	if len(res.Steps) > 1 && deferredTotal == 0 {
		t.Fatalf("ε=1e-2 run of %d steps deferred no rows", len(res.Steps))
	}

	// ε = 0 is the exact run and says so.
	var exactLabels []string
	cfg.Epsilon = 0
	cfg.Explain = func(s ExplainStep) { exactLabels = append(exactLabels, s.Engine) }
	if res, err = Hybrid(sys, cfg); err != nil {
		t.Fatal(err)
	}
	if len(exactLabels) != len(res.Steps) {
		t.Fatalf("%d explain records for %d steps", len(exactLabels), len(res.Steps))
	}
	for _, l := range exactLabels {
		if l != "lazy" {
			t.Fatalf("engine label %q, want lazy", l)
		}
	}
}
