package placement

import (
	"fmt"
	"math"
	"testing"

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
// up to seedBoundTol.
func TestOptimisticSeedsBoundExactCells(t *testing.T) {
	for _, kind := range lrumodel.ModelKinds() {
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
					visible := make([]bool, st.m)
					for k, s := range scan.Steps {
						i, p := s.Server, st.p
						mustReplicate(p, i, s.Site)
						st.visMass[i] -= st.preds[i].SitePopularity(s.Site)
						for j := range visible {
							visible[j] = !p.Has(i, j)
						}
						copy(st.h[i], st.preds[i].HitRatiosCond(visible, p.Free(i)))
						cells += requireSeedsBound(t, st, k+1)
					}
					if cells == 0 {
						t.Fatal("no feasible cell checked")
					}
				})
			}
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

// TestExactColdVerifiesFewCells is the deterministic work guard on the
// lazy cold start at ε = 0, on the §5.1 smoke instance (the shape the
// edge workloads' reference section solves, 200 objects a site), run
// serially so that both counts repeat exactly:
//
//   - Verified cells: some (the seeds are live), and at most 56. The
//     reference slices verify 53 whether they read the model's value or
//     its Jensen bound, so the bound did not loosen the screen. A return
//     of the n·m² fill verifies none.
//   - Equation (1) evaluations (shared-table misses): at most n·m for the
//     initial hit ratios, plus m per verified cell and 2·m per step — 1979
//     here. Slices that evaluate the model cost ≈ 4·n·m more: 5884.
func TestExactColdVerifiesFewCells(t *testing.T) {
	cfg := scenario.Default()
	cfg.Workload.ObjectsPerSite = 200
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	verified, steps := 0, 0
	shared := lrumodel.NewSharedTable()
	st, err := newHybridState(sc.Sys, HybridConfig{
		Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes, Parallelism: 1,
		Explain: func(e ExplainStep) { verified += e.CellsVerified; steps++ },
	}, shared)
	if err != nil {
		t.Fatal(err)
	}
	st.prepareOptimistic()
	res := hybridHeapRun(st, 0)
	if steps != len(res.Steps) || steps == 0 {
		t.Fatalf("%d explain records for %d steps", steps, len(res.Steps))
	}
	n, m := sc.Sys.N(), sc.Sys.M()
	if verified == 0 || verified > 56 {
		t.Fatalf("exact cold solve verified %d cells of %d×%d, want 1..56", verified, n, m)
	}
	if evals, most := shared.Stats().Misses, n*m+m*(verified+2*steps); evals > int64(most) {
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
