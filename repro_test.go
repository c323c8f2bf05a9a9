package repro

import (
	"context"
	"strings"
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

func TestFacadeFigureRunners(t *testing.T) {
	opts := QuickOptions()
	opts.Sim.Requests = 30000
	opts.Sim.Warmup = 15000
	if _, err := Figure5(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	rows, err := Figure6(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d fig6 rows", len(rows))
	}
	if out := FormatFig6(rows); out == "" {
		t.Fatal("empty fig6 output")
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

	// The observer sees every hybrid replication step.
	var steps int
	obs, err := Place(sc, PlacementConfig{Observer: func(PlacementStep) { steps++ }})
	if err != nil {
		t.Fatal(err)
	}
	if steps != obs.Placement.Replicas() {
		t.Errorf("observer saw %d steps for %d replicas", steps, obs.Placement.Replicas())
	}
}

// TestFacadeScheduleSimulation smoke-tests the failure-aware facade:
// build a schedule, run it, read phase metrics.
func TestFacadeScheduleSimulation(t *testing.T) {
	sc, err := BuildScenario(QuickOptions().Base)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Place(sc, PlacementConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSim()
	cfg.Requests = 40000
	cfg.Warmup = 20000
	cfg.KeepResponseTimes = false
	sched, err := NewFaultSchedule(
		FaultEvent{At: cfg.Warmup + 10000, Comp: FaultOrigin, ID: 0, Kind: FaultCrash},
		FaultEvent{At: cfg.Warmup + 30000, Comp: FaultOrigin, ID: 0, Kind: FaultRecover},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SimulateWithSchedule(context.Background(), sc, hyb.Placement, cfg, sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.EventsApplied != 2 || len(m.Phases) != 3 {
		t.Fatalf("applied %d events over %d phases, want 2 over 3", m.EventsApplied, len(m.Phases))
	}
	if m.Requests != cfg.Requests {
		t.Fatalf("measured %d requests", m.Requests)
	}
}

func TestScaleScenarioFacade(t *testing.T) {
	base := DefaultScenario()
	s2 := ScaleScenario(base, 2)
	if s2.Workload.Servers != 2*base.Workload.Servers {
		t.Fatalf("servers %d, want ×2", s2.Workload.Servers)
	}
	if s2.CapacityFrac != base.CapacityFrac/2 {
		t.Fatalf("capacity frac %v, want halved", s2.CapacityFrac)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	rows := []ScaleRow{{Factor: 1, Nodes: 544, Servers: 50, Sites: 20,
		ReplicationRTMs: 118, CachingRTMs: 79, HybridRTMs: 73, GainPct: 7.7}}
	if out := FormatScaleRows(rows); !strings.Contains(out, "scale sweep") {
		t.Fatalf("unexpected formatting:\n%s", out)
	}
}
