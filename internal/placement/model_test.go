package placement

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// TestHybridEmptyModelIsEq1ByteIdentical pins the redesign's
// compatibility contract: HybridConfig.Model = "" and "eq1" run the
// same engine state and produce identical step sequences and costs.
func TestHybridEmptyModelIsEq1ByteIdentical(t *testing.T) {
	sys, specs := randomSystem(xrand.New(31), 10, 8, 0.2)
	base := HybridConfig{Specs: specs, AvgObjectBytes: 1}
	def, err := Hybrid(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	eq1Cfg := base
	eq1Cfg.Model = "eq1"
	eq1, err := Hybrid(sys, eq1Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Steps) != len(eq1.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(def.Steps), len(eq1.Steps))
	}
	for i := range def.Steps {
		if def.Steps[i] != eq1.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, def.Steps[i], eq1.Steps[i])
		}
	}
	if def.PredictedCost != eq1.PredictedCost {
		t.Fatalf("costs differ: %v vs %v", def.PredictedCost, eq1.PredictedCost)
	}
}

func TestHybridRejectsUnknownModel(t *testing.T) {
	sys, specs := randomSystem(xrand.New(5), 6, 5, 0.2)
	_, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1, Model: "lfu"})
	if err == nil {
		t.Fatal("Hybrid accepted an unknown model")
	}
	for _, want := range []string{`"lfu"`, "eq1", "random"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestHybridEveryModelProducesValidPlacement: every kind drives the
// engine to a feasible, cost-improving placement.
func TestHybridEveryModelProducesValidPlacement(t *testing.T) {
	sys, specs := randomSystem(xrand.New(13), 8, 6, 0.2)
	noneCost := PredictCost(None(sys).Placement, specs, 1)
	for _, kind := range lrumodel.ModelKinds() {
		res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1, Model: string(kind)})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Steps) == 0 {
			t.Errorf("%s: no replicas placed", kind)
		}
		cost, err := PredictCostOpts(res.Placement, CostOptions{Specs: specs, AvgObjectBytes: 1, Model: string(kind)})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if cost > noneCost+1e-9 {
			t.Errorf("%s: placement cost %v above pure caching %v", kind, cost, noneCost)
		}
	}
}

// TestPredictCostOptsMatchesPredictCost: the options entry point under
// defaults is the legacy fixed-signature function, exactly.
func TestPredictCostOptsMatchesPredictCost(t *testing.T) {
	sys, specs := randomSystem(xrand.New(3), 8, 6, 0.2)
	res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := PredictCost(res.Placement, specs, 1)
	got, err := PredictCostOpts(res.Placement, CostOptions{Specs: specs, AvgObjectBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("PredictCostOpts %v != PredictCost %v", got, want)
	}
}

// TestPredictCostOptsSharedTableReuse: probes through a solve's
// WarmState return the fresh-table cost bit for bit, both on the solved
// system, where every row reuses the solve's predictor, and under
// another demand, where no row may and each builds a fresh predictor
// against the solve's hit-ratio table, hitting it.
func TestPredictCostOptsSharedTableReuse(t *testing.T) {
	sys, specs := randomSystem(xrand.New(17), 8, 6, 0.2)
	cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1}
	res, warm, _, err := Incremental(nil, sys, IncrementalConfig{HybridConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	other, _ := randomSystem(xrand.New(18), 8, 6, 0.2)
	moved, err := sys.WithDemand(other.Demand)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.N(); i++ {
		if warm.rowModel(sys, i) == nil {
			t.Fatalf("row %d of the solved system does not reuse its predictor", i)
		}
		if warm.rowModel(moved, i) != nil {
			t.Fatalf("row %d reuses its predictor under another demand", i)
		}
	}
	for _, p := range []*core.Placement{res.Placement, mustRebuild(t, res.Placement, moved)} {
		fresh, err := PredictCostOpts(p, CostOptions{Specs: specs, AvgObjectBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := CostOptions{Specs: specs, AvgObjectBytes: 1, Warm: warm}
		hits := warm.SharedStats().Hits
		first, err := PredictCostOpts(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		second, err := PredictCostOpts(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first != fresh || second != fresh {
			t.Fatalf("warm-state costs %v, %v != fresh %v", first, second, fresh)
		}
		if p.System() == moved && warm.SharedStats().Hits <= hits {
			t.Fatal("fresh predictors did not hit the solve's table")
		}
	}
}

func mustRebuild(t *testing.T, p *core.Placement, sys *core.System) *core.Placement {
	t.Helper()
	q, err := p.RebuildOn(sys)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestIncrementalModelChangeForcesCold: a warm state built under one
// model cannot be repaired under another — the memoized hit-ratio
// surfaces differ — so the reconcile must fall back cold with the
// "model-changed" reason.
func TestIncrementalModelChangeForcesCold(t *testing.T) {
	sys, specs := randomSystem(xrand.New(23), 8, 6, 0.2)
	cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1}}
	_, state, _, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.Model = "che"
	_, state2, stats, err := Incremental(state, sys, changed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm {
		t.Fatal("reconcile stayed warm across a model change")
	}
	if stats.Reason != "model-changed" {
		t.Fatalf("cold reason %q, want \"model-changed\"", stats.Reason)
	}
	// Same model again: warm repair works on the rebuilt state.
	_, _, stats2, err := Incremental(state2, sys, changed)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Warm {
		t.Fatalf("second round under the new model fell back cold (%s)", stats2.Reason)
	}
	// "" and "eq1" are the same model: no spurious cold fallback.
	_, state3, _, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eq1 := cfg
	eq1.Model = "eq1"
	_, _, stats3, err := Incremental(state3, sys, eq1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats3.Warm {
		t.Fatalf("\"\" -> \"eq1\" forced a cold run (%s)", stats3.Reason)
	}
}

// TestHybridModelCostMonotonicity is a sanity guard on the cross-model
// cost deltas BenchmarkHybridCold/model=* reports (EXPERIMENTS.md,
// "Hit-ratio model ablation"): che and random may differ from eq1 but
// remain the same order of magnitude.
func TestHybridModelCostMonotonicity(t *testing.T) {
	sys, specs := randomSystem(xrand.New(29), 10, 8, 0.2)
	costs := map[string]float64{}
	for _, kind := range lrumodel.ModelKinds() {
		res, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1, Model: string(kind)})
		if err != nil {
			t.Fatal(err)
		}
		costs[string(kind)] = res.PredictedCost
	}
	for kind, c := range costs {
		if rel := math.Abs(c-costs["eq1"]) / costs["eq1"]; rel > 0.5 {
			t.Errorf("%s predicted cost %.5f implausibly far from eq1's %.5f", kind, c, costs["eq1"])
		}
	}
}

// predictCostSerial is PredictCostOpts's objective row after row with a
// fresh private table: the reference its fan-out is held to.
func predictCostSerial(t *testing.T, p *core.Placement, specs []lrumodel.SiteSpec, avgObj float64) float64 {
	t.Helper()
	sys := p.System()
	total := 0.0
	for i := 0; i < sys.N(); i++ {
		pred := mustModel(lrumodel.ModelEq1, specs, sys.Demand[i], avgObj, sys.Capacity[i], nil)
		visible := make([]bool, sys.M())
		for j := range visible {
			visible[j] = !p.Has(i, j)
		}
		h := pred.HitRatiosCond(visible, p.Free(i))
		for j := 0; j < sys.M(); j++ {
			if c := p.NearestCost(i, j); c != 0 {
				total += (1 - h[j]) * sys.Demand[i][j] * c
			}
		}
	}
	return total
}

// TestPredictCostOptsParallelBitIdentical: rows are priced across
// GOMAXPROCS workers and summed in row order afterwards, so the cost is
// the serial row-by-row sum, bit for bit, at GOMAXPROCS 1, 2 and 8, with
// and without a solve's WarmState — on the solved system, where every
// row reuses its predictor, and under another demand, where none may.
func TestPredictCostOptsParallelBitIdentical(t *testing.T) {
	cfg := scenario.Default()
	cfg.Workload.ObjectsPerSite = 200
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, avgObj := sc.Work.Specs(), sc.Work.AvgObjectBytes
	res, warm, _, err := Incremental(nil, sc.Sys, IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: avgObj}})
	if err != nil {
		t.Fatal(err)
	}
	moved := withDemand(sc.Sys, func(d [][]float64) {
		r := xrand.New(3)
		for i := range d {
			for j := range d[i] {
				d[i][j] *= 0.5 + r.Float64()
			}
		}
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []*core.Placement{res.Placement, mustRebuild(t, res.Placement, moved)} {
		want := predictCostSerial(t, p, specs, avgObj)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, w := range []*WarmState{nil, warm} {
				got, err := PredictCostOpts(p, CostOptions{Specs: specs, AvgObjectBytes: avgObj, Warm: w})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("GOMAXPROCS=%d warm=%v: cost %v, serial %v", procs, w != nil, got, want)
				}
			}
		}
	}
}
