package placement

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lrumodel"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// hasMatrix snapshots a placement as a boolean replica matrix so two
// placements from different runs can be compared structurally.
func hasMatrix(r *Result) [][]bool {
	sys := r.Placement.System()
	m := make([][]bool, sys.N())
	for i := range m {
		m[i] = make([]bool, sys.M())
		for j := range m[i] {
			m[i][j] = r.Placement.Has(i, j)
		}
	}
	return m
}

// requireSameResult asserts two placement runs made bit-identical
// decisions: same step sequence (including float Benefit and
// PredictedCost), same final objective, same replica matrix.
func requireSameResult(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial.Steps, parallel.Steps) {
		t.Errorf("%s: step sequences differ\nserial:   %+v\nparallel: %+v",
			label, serial.Steps, parallel.Steps)
	}
	if serial.PredictedCost != parallel.PredictedCost {
		t.Errorf("%s: predicted cost %v (serial) vs %v (parallel)",
			label, serial.PredictedCost, parallel.PredictedCost)
	}
	if !reflect.DeepEqual(hasMatrix(serial), hasMatrix(parallel)) {
		t.Errorf("%s: replica matrices differ", label)
	}
}

// TestGreedyGlobalOptsParallelMatchesSerial: every benefit cell is a pure
// function of the placement and the argmax stays sequential, so any
// worker count must reproduce the serial step sequence exactly.
func TestGreedyGlobalOptsParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		sys, _ := randomSystem(xrand.New(seed), 12, 8, 0.25)
		serial := GreedyGlobalOpts(sys, GreedyConfig{Parallelism: 1})
		if len(serial.Steps) == 0 {
			t.Fatalf("seed %d: degenerate run, no steps", seed)
		}
		for _, par := range []int{0, 2, 7} {
			got := GreedyGlobalOpts(sys, GreedyConfig{Parallelism: par})
			requireSameResult(t, fmt.Sprintf("seed=%d parallelism=%d", seed, par), serial, got)
		}
	}
}

// TestGreedyGlobalOptsParallelMatchesSerialUpdates repeats the check
// under the read-plus-update FAP objective.
func TestGreedyGlobalOptsParallelMatchesSerialUpdates(t *testing.T) {
	sys, _ := randomSystem(xrand.New(21), 10, 6, 0.2)
	r := xrand.New(22)
	updates := make([]float64, sys.M())
	for j := range updates {
		updates[j] = r.Float64() * 0.05
	}
	serial := GreedyGlobalOpts(sys, GreedyConfig{UpdateRates: updates, Parallelism: 1})
	got := GreedyGlobalOpts(sys, GreedyConfig{UpdateRates: updates, Parallelism: 4})
	requireSameResult(t, "updates", serial, got)
}

// TestHybridParallelMatchesSerial: hybrid rows each own one lrumodel
// predictor (memoizing, not concurrency-safe), so parallelism is
// row-granular — and therefore decision-identical to the serial path.
func TestHybridParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{2, 8} {
		sys, specs := randomSystem(xrand.New(seed), 10, 7, 0.2)
		cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: 1}
		serial, err := Hybrid(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Steps) == 0 {
			t.Fatalf("seed %d: degenerate run, no steps", seed)
		}
		for _, par := range []int{0, 3, 8} {
			cfg.Parallelism = par
			got, err := Hybrid(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("seed=%d parallelism=%d", seed, par), serial, got)
		}
	}
}

// TestNewHybridStateParallelBuild: the per-row model builds fan out, and
// the state they leave at the paper's x1 instance — every row's hit
// ratios and visible mass, and the exact solve from it — is the serial
// build's, bit for bit, at any Parallelism.
func TestNewHybridStateParallelBuild(t *testing.T) {
	sc, err := scenario.Build(scenario.Scale(scenario.Default(), 1))
	if err != nil {
		t.Fatal(err)
	}
	var h [][]float64
	var visMass []float64
	var serial *Result
	for _, par := range []int{1, 2, 8} {
		cfg := HybridConfig{Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes, Parallelism: par}
		st, err := newHybridState(sc.Sys, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			// The solve moves the state on: keep the serial build's.
			for _, row := range st.h {
				h = append(h, append([]float64(nil), row...))
			}
			visMass = append(visMass, st.visMass...)
		} else if !reflect.DeepEqual(h, st.h) || !reflect.DeepEqual(visMass, st.visMass) {
			t.Fatalf("parallelism=%d: hit ratios or visible masses differ from the serial build", par)
		}
		st.prepareOptimistic()
		res := hybridHeapRun(st)
		if serial == nil {
			if len(res.Steps) == 0 {
				t.Fatal("degenerate run, no steps")
			}
			serial = res
			continue
		}
		requireSameResult(t, fmt.Sprintf("parallelism=%d", par), serial, res)
	}
}

// TestNewHybridStateReportsFirstRowError: with invalid demand in two
// rows, every Parallelism reports the earlier row's error, not whichever
// worker finished first.
func TestNewHybridStateReportsFirstRowError(t *testing.T) {
	sys, specs := randomSystem(xrand.New(3), 12, 6, 0.2)
	n := sys.N()
	sys.Demand[n/2][0] = -1
	sys.Demand[n-1][1] = -2
	_, want := lrumodel.New(lrumodel.ModelConfig{Specs: specs, Weights: sys.Demand[n/2], AvgObjectBytes: 1, MaxCacheBytes: sys.Capacity[n/2]})
	if want == nil {
		t.Fatal("row n/2's demand is valid")
	}
	for _, par := range []int{1, 2, 8} {
		_, err := newHybridState(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: par}, nil)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("parallelism=%d: error %v, want row %d's: %v", par, err, n/2, want)
		}
	}
}

// TestHybridParallelMatchesSerialUpdates covers the hybrid algorithm
// with update propagation costs in play.
func TestHybridParallelMatchesSerialUpdates(t *testing.T) {
	sys, specs := randomSystem(xrand.New(31), 8, 6, 0.2)
	r := xrand.New(32)
	updates := make([]float64, sys.M())
	for j := range updates {
		updates[j] = r.Float64() * 0.05
	}
	serial, err := Hybrid(sys, HybridConfig{
		Specs: specs, AvgObjectBytes: 1, UpdateRates: updates, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Hybrid(sys, HybridConfig{
		Specs: specs, AvgObjectBytes: 1, UpdateRates: updates, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "updates", serial, got)
}
