package placement

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// withDemand shallow-copies a system with a fresh demand matrix —
// the shape of a reconcile round: same topology, new EWMA.
func withDemand(sys *core.System, mutate func(d [][]float64)) *core.System {
	next := *sys
	next.Demand = make([][]float64, sys.N())
	for i := range next.Demand {
		next.Demand[i] = append([]float64(nil), sys.Demand[i]...)
	}
	if mutate != nil {
		mutate(next.Demand)
	}
	return &next
}

// TestIncrementalUnchangedDemand: with zero drift the warm round must
// pass the previous solution through — same replica matrix, same
// predicted cost, no steps added, all predictors reused.
func TestIncrementalUnchangedDemand(t *testing.T) {
	sys, specs := randomSystem(xrand.New(11), 20, 10, 0.1)
	cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1}}

	cold, warm, stats, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm || stats.Reason != "cold-start" {
		t.Fatalf("first round: stats = %+v, want cold-start", stats)
	}
	if len(cold.Steps) == 0 {
		t.Fatal("degenerate cold run, no steps")
	}

	again, warm2, stats2, err := Incremental(warm, withDemand(sys, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Warm {
		t.Fatalf("unchanged demand went cold: %+v", stats2)
	}
	if stats2.DirtyRows != 0 || stats2.PredictorsReused != sys.N() {
		t.Fatalf("unchanged demand dirtied rows: %+v", stats2)
	}
	if stats2.StepsAdded != 0 {
		t.Fatalf("unchanged demand added %d steps", stats2.StepsAdded)
	}
	if !placementsEqual(cold.Placement, again.Placement) {
		t.Fatal("warm round changed the placement")
	}
	if again.PredictedCost != cold.PredictedCost {
		t.Fatalf("predicted cost drifted: cold %v, warm %v", cold.PredictedCost, again.PredictedCost)
	}
	if len(again.Steps) != len(cold.Steps) {
		t.Fatalf("step recipe changed length: %d vs %d", len(again.Steps), len(cold.Steps))
	}
	if warm2.SharedStats().Entries == 0 {
		t.Fatal("shared table empty after two rounds")
	}
}

// TestIncrementalSmallDriftStaysWarm: sub-threshold noise on every row
// must repair in place and keep the predicted cost near a cold
// re-solve on the same demand.
func TestIncrementalSmallDriftStaysWarm(t *testing.T) {
	sys, specs := randomSystem(xrand.New(12), 20, 10, 0.1)
	cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1}}

	_, warm, _, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := xrand.New(13)
	drifted := withDemand(sys, func(d [][]float64) {
		for i := range d {
			for j := range d[i] {
				d[i][j] *= 1 + 0.02*(2*r.Float64()-1) // ±2% per cell, below the 5% row threshold
			}
		}
	})
	res, _, stats, err := Incremental(warm, drifted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Warm {
		t.Fatalf("small drift went cold: %+v", stats)
	}
	coldRes, _, _, err := Incremental(nil, drifted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(res.PredictedCost-coldRes.PredictedCost) / coldRes.PredictedCost
	if rel > 0.05 {
		t.Fatalf("warm cost %v vs cold %v: rel diff %.3g", res.PredictedCost, coldRes.PredictedCost, rel)
	}
	if err := res.Placement.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalLargeDriftFallsBack: when most rows move, the warm
// path must abandon the carried placement and re-solve cold — the
// result must equal a from-scratch solve exactly.
func TestIncrementalLargeDriftFallsBack(t *testing.T) {
	sys, specs := randomSystem(xrand.New(14), 18, 9, 0.1)
	cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1}}

	_, warm, _, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(15)
	shifted := withDemand(sys, func(d [][]float64) {
		for i := range d {
			for j := range d[i] {
				d[i][j] *= 0.2 + 1.6*r.Float64() // ±80% per cell
			}
		}
	})
	res, _, stats, err := Incremental(warm, shifted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm || stats.Reason != "drift-too-large" {
		t.Fatalf("large drift stayed warm: %+v", stats)
	}
	fresh, err := Hybrid(shifted, HybridConfig{Specs: specs, AvgObjectBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !placementsEqual(res.Placement, fresh.Placement) {
		t.Fatal("cold fallback placement differs from a fresh solve")
	}
	if res.PredictedCost != fresh.PredictedCost {
		t.Fatalf("cold fallback cost %v, fresh %v", res.PredictedCost, fresh.PredictedCost)
	}
}

// TestIncrementalTopologyChange: a capacity change invalidates the
// carried state entirely.
func TestIncrementalTopologyChange(t *testing.T) {
	sys, specs := randomSystem(xrand.New(16), 12, 8, 0.1)
	cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1}}
	_, warm, _, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := withDemand(sys, nil)
	next.Capacity = append([]int64(nil), sys.Capacity...)
	next.Capacity[0] *= 2
	_, _, stats, err := Incremental(warm, next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm || stats.Reason != "topology-changed" {
		t.Fatalf("topology change not detected: %+v", stats)
	}
}

// TestIncrementalGrowingDemandAddsReplicas: a warm round facing a
// localized hot spot must extend the placement (monotone repair) and
// report the added steps, with the full recipe recreating the result.
func TestIncrementalGrowingDemandAddsReplicas(t *testing.T) {
	sys, specs := randomSystem(xrand.New(17), 20, 10, 0.05)
	cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1}}
	_, warm, _, err := Incremental(nil, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := withDemand(sys, func(d [][]float64) {
		for i := 0; i < 3; i++ {
			d[i][0] *= 4
		}
	})
	res, warm2, stats, err := Incremental(warm, hot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Warm || stats.DirtyRows != 3 {
		t.Fatalf("want a warm repair of the 3 hot rows, got %+v", stats)
	}
	// Replay the recipe: every step must be a valid creation and the
	// final matrix must match.
	replay := core.NewPlacement(hot)
	for _, s := range res.Steps {
		if err := replay.Replicate(s.Server, s.Site); err != nil {
			t.Fatalf("recipe step (%d,%d): %v", s.Server, s.Site, err)
		}
	}
	if !placementsEqual(replay, res.Placement) {
		t.Fatal("step recipe does not recreate the warm placement")
	}
	if got := len(warm2.Steps()); got != len(res.Steps) {
		t.Fatalf("warm state holds %d steps, result %d", got, len(res.Steps))
	}
	if err := res.Placement.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalColdIsHybrid: with no previous state Incremental is
// Hybrid's solve with its state captured — the same steps, bit for bit,
// and the same engine work per step, from the same bounded and verified
// cells.
func TestIncrementalColdIsHybrid(t *testing.T) {
	sys, specs := randomSystem(xrand.New(18), 20, 10, 0.1)
	run := func(incremental bool) ([]Step, []ExplainStep) {
		var explain []ExplainStep
		cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: 1,
			Explain: func(e ExplainStep) { explain = append(explain, e) }}
		var res *Result
		var err error
		if incremental {
			res, _, _, err = Incremental(nil, sys, IncrementalConfig{HybridConfig: cfg})
		} else {
			res, err = Hybrid(sys, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Steps, explain
	}
	wantSteps, want := run(false)
	gotSteps, got := run(true)
	if !reflect.DeepEqual(gotSteps, wantSteps) {
		t.Fatalf("Incremental(nil) steps %+v, Hybrid %+v", gotSteps, wantSteps)
	}
	verified := 0
	for k := range want {
		g, w := got[k], want[k]
		if g.HeapPops != w.HeapPops || g.CellsBounded != w.CellsBounded || g.CellsVerified != w.CellsVerified {
			t.Fatalf("step %d: Incremental(nil) pops/bounded/verified %d/%d/%d, Hybrid %d/%d/%d",
				k, g.HeapPops, g.CellsBounded, g.CellsVerified, w.HeapPops, w.CellsBounded, w.CellsVerified)
		}
		verified += g.CellsVerified
	}
	if len(want) == 0 || verified == 0 {
		t.Fatalf("degenerate run: %d steps, %d verified cells", len(want), verified)
	}
}

// TestIncrementalWarmRace: a warm repair with several dirty rows and
// several workers must not depend on the order the rows are visited in.
// Every row's benefit cells read the hit ratios of every other row, so
// the dirty rows' hit ratios have to be final before any cell is
// re-derived; with the two interleaved, repeated parallel repairs of one
// input differ from each other and from the serial repair (and the race
// detector reports the interleaving).
func TestIncrementalWarmRace(t *testing.T) {
	sys, specs := randomSystem(xrand.New(19), 20, 10, 0.1)
	hot := withDemand(sys, func(d [][]float64) {
		for _, i := range []int{2, 7, 11, 16} { // 4 of 20 rows: dirty, yet warm
			for j := range d[i] {
				d[i][j] *= 1 + 10*float64((i+j)%4)
			}
		}
	})
	repair := func(parallelism int) []Step {
		cfg := IncrementalConfig{HybridConfig: HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: parallelism}}
		_, warm, _, err := Incremental(nil, sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, stats, err := Incremental(warm, hot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Warm || stats.DirtyRows < 3 {
			t.Fatalf("want a warm repair with at least 3 dirty rows, got %+v", stats)
		}
		if stats.StepsAdded == 0 {
			t.Fatal("the repair added no replica: the drift does not exercise the benefit cells")
		}
		return res.Steps
	}
	want := repair(1)
	for rep := 0; rep < 20; rep++ {
		got := repair(4)
		if len(got) != len(want) {
			t.Fatalf("repetition %d: %d steps, serial repair has %d", rep, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("repetition %d, step %d: %+v, serial repair has %+v", rep, k, got[k], want[k])
			}
		}
	}
}

func placementsEqual(a, b *core.Placement) bool {
	sa, sb := a.System(), b.System()
	if sa.N() != sb.N() || sa.M() != sb.M() {
		return false
	}
	for i := 0; i < sa.N(); i++ {
		for j := 0; j < sa.M(); j++ {
			if a.Has(i, j) != b.Has(i, j) {
				return false
			}
		}
	}
	return true
}
