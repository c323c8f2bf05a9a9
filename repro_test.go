package repro

import (
	"context"
	"testing"

	"repro/internal/placement"
)

// TestFacadeEndToEnd drives the public API the way the README's
// quick-start does, at reduced scale.
func TestFacadeEndToEnd(t *testing.T) {
	opts := QuickOptions()
	cfg := opts.Base
	sc, err := BuildScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}

	place := func(cfg PlacementConfig) *PlacementResult {
		t.Helper()
		res, err := Place(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hyb := place(PlacementConfig{Strategy: StrategyHybrid})
	repl := place(PlacementConfig{Strategy: StrategyReplication})
	pure := place(PlacementConfig{Strategy: StrategyCaching})
	adhoc := place(PlacementConfig{Strategy: StrategyAdHoc, CacheFrac: 0.5})

	simCfg := DefaultSim()
	simCfg.Requests = 50000
	simCfg.Warmup = 25000

	mHyb := MustSimulate(context.Background(), sc, hyb.Placement, simCfg, 7)
	simCfg.UseCache = false
	mRepl := MustSimulate(context.Background(), sc, repl.Placement, simCfg, 7)
	simCfg.UseCache = true
	mPure := MustSimulate(context.Background(), sc, pure.Placement, simCfg, 7)
	mAdhoc := MustSimulate(context.Background(), sc, adhoc.Placement, simCfg, 7)

	if mHyb.MeanRTMs >= mRepl.MeanRTMs || mHyb.MeanRTMs >= mPure.MeanRTMs {
		t.Errorf("hybrid %.2f ms vs replication %.2f / caching %.2f: headline violated",
			mHyb.MeanRTMs, mRepl.MeanRTMs, mPure.MeanRTMs)
	}
	if mAdhoc.Requests != simCfg.Requests {
		t.Errorf("adhoc measured %d requests", mAdhoc.Requests)
	}
}

func TestDefaultsAreValid(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultSim().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceStrategies: every Strategy reaches its algorithm, the zero
// value is the hybrid, and an unknown name is an error.
func TestPlaceStrategies(t *testing.T) {
	sc, err := BuildScenario(QuickOptions().Base)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b *Placement) bool {
		for i := 0; i < sc.Sys.N(); i++ {
			for j := 0; j < sc.Sys.M(); j++ {
				if a.Has(i, j) != b.Has(i, j) {
					return false
				}
			}
		}
		return true
	}
	place := func(cfg PlacementConfig) *Placement {
		t.Helper()
		res, err := Place(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Placement
	}

	hyb := place(PlacementConfig{Strategy: StrategyHybrid})
	if hyb.Replicas() == 0 {
		t.Error("hybrid placed no replicas")
	}
	if !same(hyb, place(PlacementConfig{})) {
		t.Error("zero-value PlacementConfig is not hybrid")
	}
	if !same(place(PlacementConfig{Strategy: StrategyReplication}), placement.GreedyGlobal(sc.Sys).Placement) {
		t.Error("Place(replication) is not the greedy-global baseline")
	}
	if n := place(PlacementConfig{Strategy: StrategyCaching}).Replicas(); n != 0 {
		t.Errorf("Place(caching) created %d replicas", n)
	}
	adhoc, err := placement.AdHoc(sc.Sys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !same(place(PlacementConfig{Strategy: StrategyAdHoc, CacheFrac: 0.5}), adhoc.Placement) {
		t.Error("Place(adhoc) is not the 50% fixed split")
	}

	if _, err := Place(sc, PlacementConfig{Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy accepted")
	}

	// The result records every hybrid replication step.
	res, err := Place(sc, PlacementConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != res.Placement.Replicas() {
		t.Errorf("%d steps for %d replicas", len(res.Steps), res.Placement.Replicas())
	}
}
