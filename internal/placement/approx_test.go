package placement

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The heaps carry two contracts: at ε = 0 they are the exact greedy —
// the scanning oracle's float-op stream, hence byte-identical
// Result.Steps — and at ε > 0 the final predicted cost sits within ε
// (relative) of the exact run's. Both are enforced here across seeds ×
// scales × parallelism.

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
