package placement

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// The lazy-greedy heaps must reproduce the scanning oracles
// (oracle_test.go) bit for bit: same Step sequence (servers, sites,
// float64 benefits and predicted costs), same final placement, same
// final objective. reflect.DeepEqual on Steps compares the floats
// exactly — any reordering of arithmetic would fail here.

func requireBitIdentical(t *testing.T, scan, lazy *Result) {
	t.Helper()
	if len(scan.Steps) != len(lazy.Steps) {
		t.Fatalf("scan took %d steps, lazy %d", len(scan.Steps), len(lazy.Steps))
	}
	for s := range scan.Steps {
		if scan.Steps[s] != lazy.Steps[s] {
			t.Fatalf("step %d diverges:\n  scan %+v\n  lazy %+v", s, scan.Steps[s], lazy.Steps[s])
		}
	}
	if !reflect.DeepEqual(scan.Steps, lazy.Steps) {
		t.Fatalf("step sequences differ")
	}
	if scan.PredictedCost != lazy.PredictedCost {
		t.Fatalf("predicted cost diverges: scan %v, lazy %v", scan.PredictedCost, lazy.PredictedCost)
	}
	if !reflect.DeepEqual(hasMatrix(scan), hasMatrix(lazy)) {
		t.Fatalf("final placements differ")
	}
}

// requireHeapMatchesOracle runs the hybrid oracle and both cold entry
// points of the heap on one instance and requires all three results to
// be bit-identical; it returns the oracle's.
func requireHeapMatchesOracle(t *testing.T, sys *core.System, cfg HybridConfig) *Result {
	t.Helper()
	scan, err := hybridOracle(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, scan, lazy)
	captured, _, stats, err := Incremental(nil, sys, IncrementalConfig{HybridConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm {
		t.Fatal("Incremental with no previous state reported a warm round")
	}
	requireBitIdentical(t, scan, captured)
	return scan
}

// TestLazyMatchesScanGreedy pins the CELF heap to the scanning
// oracle across seeds, capacity fractions, update rates and worker
// counts.
func TestLazyMatchesScanGreedy(t *testing.T) {
	totalSteps := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, capFrac := range []float64{0.05, 0.1, 0.3} {
			for _, withUpdates := range []bool{false, true} {
				for _, par := range []int{1, 8} {
					name := fmt.Sprintf("seed=%d/cap=%v/updates=%v/par=%d", seed, capFrac, withUpdates, par)
					t.Run(name, func(t *testing.T) {
						r := xrand.New(seed)
						sys, _ := randomSystem(r, 14, 9, capFrac)
						var rates []float64
						if withUpdates {
							rates = make([]float64, sys.M())
							for j := range rates {
								rates[j] = 0.3 * r.Float64()
							}
						}
						cfg := GreedyConfig{UpdateRates: rates, Parallelism: par}
						scan := greedyScan(sys, cfg)
						lazy := GreedyGlobalOpts(sys, cfg)
						totalSteps += len(scan.Steps)
						requireBitIdentical(t, scan, lazy)
					})
				}
			}
		}
	}
	if totalSteps == 0 {
		t.Fatal("every grid point degenerated to zero steps")
	}
}

// TestLazyMatchesScanHybrid pins the lazy-deletion heap (and its
// per-row model-value cache) to the scanning oracle across the same
// grid, through both of its cold entry points: Hybrid and Incremental
// with no previous state (the run that also captures a WarmState).
func TestLazyMatchesScanHybrid(t *testing.T) {
	totalSteps := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, capFrac := range []float64{0.05, 0.1, 0.3} {
			for _, withUpdates := range []bool{false, true} {
				for _, par := range []int{1, 8} {
					name := fmt.Sprintf("seed=%d/cap=%v/updates=%v/par=%d", seed, capFrac, withUpdates, par)
					t.Run(name, func(t *testing.T) {
						r := xrand.New(seed)
						sys, specs := randomSystem(r, 14, 9, capFrac)
						cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: par}
						if withUpdates {
							cfg.UpdateRates = make([]float64, sys.M())
							for j := range cfg.UpdateRates {
								cfg.UpdateRates[j] = 0.3 * r.Float64()
							}
						}
						scan := requireHeapMatchesOracle(t, sys, cfg)
						totalSteps += len(scan.Steps)
					})
				}
			}
		}
	}
	if totalSteps == 0 {
		t.Fatal("every grid point degenerated to zero steps")
	}
}

// TestLazyMatchesScanPaperScale pins the heaps to the oracles at the
// paper's evaluation scale (50 servers, 20 sites), the size the
// acceptance bar names explicitly.
func TestLazyMatchesScanPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale comparison is slow")
	}
	r := xrand.New(1)
	sys, specs := randomSystem(r, 50, 20, 0.1)

	requireBitIdentical(t, greedyScan(sys, GreedyConfig{}), GreedyGlobalOpts(sys, GreedyConfig{}))
	requireHeapMatchesOracle(t, sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
}

// TestLazyHeapOrdering pins the tie-break: equal keys must pop in
// row-major (server, then site) order, matching the scan's strict
// first-maximum rule.
func TestLazyHeapOrdering(t *testing.T) {
	var hp benHeap
	hp.push(benEntry{key: 1, i: 2, j: 1})
	hp.push(benEntry{key: 1, i: 0, j: 3})
	hp.push(benEntry{key: 2, i: 5, j: 5})
	hp.push(benEntry{key: 1, i: 0, j: 1})
	want := []benEntry{
		{key: 2, i: 5, j: 5},
		{key: 1, i: 0, j: 1},
		{key: 1, i: 0, j: 3},
		{key: 1, i: 2, j: 1},
	}
	for _, w := range want {
		if got := hp.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
	}
	if hp.len() != 0 {
		t.Fatalf("heap not drained: %d left", hp.len())
	}
}
