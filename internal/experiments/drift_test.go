package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
)

func smallDriftScenario() *scenario.Scenario { return driftScenarioWithLambda(0) }

func driftScenarioWithLambda(lambda float64) *scenario.Scenario {
	w := workload.DefaultConfig()
	w.Lambda = lambda
	w.Servers = 8
	w.LowSites, w.MediumSites, w.HighSites = 4, 8, 4
	w.ObjectsPerSite = 100
	return scenario.MustBuild(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   3,
			StubNodesPerStub:      5,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.10,
		Seed:         1,
	})
}

func fastDriftConfig() DriftConfig {
	cfg := DefaultDriftConfig()
	cfg.Epochs = 5
	cfg.RequestsPerEpoch = 30000
	cfg.Warmup = 30000
	return cfg
}

func TestDriftValidate(t *testing.T) {
	if err := DefaultDriftConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*DriftConfig){
		func(c *DriftConfig) { c.Epochs = 0 },
		func(c *DriftConfig) { c.RequestsPerEpoch = 0 },
		func(c *DriftConfig) { c.Warmup = -1 },
		func(c *DriftConfig) { c.Drift = -0.1 },
		func(c *DriftConfig) { c.PerHopMs = -1 },
	}
	for i, m := range mutations {
		c := DefaultDriftConfig()
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCachingPaysNoTransfer(t *testing.T) {
	sc := smallDriftScenario()
	res, err := RunDrift(context.Background(), sc, DriftCaching, fastDriftConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTransferGBHops != 0 {
		t.Fatalf("caching paid %v GB·hops of transfer", res.TotalTransferGBHops)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("%d epochs", len(res.Epochs))
	}
	for _, e := range res.Epochs {
		if e.Replicas != 0 {
			t.Fatal("caching created replicas")
		}
		if e.MeanRTMs <= 0 {
			t.Fatal("empty epoch")
		}
	}
}

func TestStaticStrategiesTransferOnce(t *testing.T) {
	sc := smallDriftScenario()
	for _, strat := range []DriftStrategy{DriftStaticReplication, DriftStaticHybrid} {
		res, err := RunDrift(context.Background(), sc, strat, fastDriftConfig(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epochs[0].TransferGBHops <= 0 {
			t.Fatalf("%s: no initial placement transfer", strat)
		}
		for _, e := range res.Epochs[1:] {
			if e.TransferGBHops != 0 {
				t.Fatalf("%s: static strategy moved replicas at epoch %d", strat, e.Epoch)
			}
		}
	}
}

func TestAdaptiveKeepsMoving(t *testing.T) {
	sc := smallDriftScenario()
	res, err := RunDrift(context.Background(), sc, DriftAdaptiveHybrid, fastDriftConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0.0
	for _, e := range res.Epochs[1:] {
		moved += e.TransferGBHops
	}
	if moved <= 0 {
		t.Fatal("adaptive strategy never moved a replica under drift")
	}
	// Adaptive re-placement must also pay more transfer in total than
	// the one-shot static placement.
	static, err := RunDrift(context.Background(), sc, DriftStaticHybrid, fastDriftConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTransferGBHops <= static.TotalTransferGBHops {
		t.Fatalf("adaptive transfer %v not above static %v",
			res.TotalTransferGBHops, static.TotalTransferGBHops)
	}
}

func TestDriftHurtsStaticReplicationMost(t *testing.T) {
	// The paper's motivation: under drift, a static pure-replication
	// deployment decays, while strategies with caches adapt. A single
	// drift draw can randomly favor either side, so compare the decay
	// (later-epoch RT minus first-epoch RT) averaged over seeds.
	sc := smallDriftScenario()
	cfg := fastDriftConfig()
	cfg.Drift = 0.8
	var declineR, declineH float64
	for seed := uint64(11); seed < 17; seed++ {
		repl, err := RunDrift(context.Background(), sc, DriftStaticReplication, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := RunDrift(context.Background(), sc, DriftStaticHybrid, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for e := 1; e < len(repl.Epochs); e++ {
			declineR += repl.Epochs[e].MeanRTMs - repl.Epochs[0].MeanRTMs
			declineH += hyb.Epochs[e].MeanRTMs - hyb.Epochs[0].MeanRTMs
		}
		// Per seed, the hybrid stays ahead overall.
		if hyb.MeanRTMs >= repl.MeanRTMs {
			t.Errorf("seed %d: static hybrid %.2f not better than static replication %.2f",
				seed, hyb.MeanRTMs, repl.MeanRTMs)
		}
	}
	if declineH >= declineR {
		t.Errorf("avg decay: hybrid %.2f ms, replication %.2f ms: caching did not cushion drift",
			declineH, declineR)
	}
}

func TestZeroDriftStaticMatchesAdaptiveRT(t *testing.T) {
	// Without drift, re-placing every epoch cannot improve latency;
	// the adaptive strategy only pays (zero additional) transfer.
	sc := smallDriftScenario()
	cfg := fastDriftConfig()
	cfg.Drift = 0
	static, err := RunDrift(context.Background(), sc, DriftStaticHybrid, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunDrift(context.Background(), sc, DriftAdaptiveHybrid, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.TotalTransferGBHops != static.TotalTransferGBHops {
		t.Fatalf("zero drift but adaptive transferred %v vs static %v",
			adaptive.TotalTransferGBHops, static.TotalTransferGBHops)
	}
	diff := adaptive.MeanRTMs - static.MeanRTMs
	if diff < -1 || diff > 1 {
		t.Fatalf("zero-drift RT differs: static %.2f vs adaptive %.2f",
			static.MeanRTMs, adaptive.MeanRTMs)
	}
}

// TestDriftHonoursLambda pins the fix that came with serving drift
// through sim's stepper: the λ fraction of requests is uncacheable and
// travels to SN. The old private loop looked every request up in the
// cache, so λ changed nothing for the caching strategy. With the request
// sequence fixed by the seed, λ = 0.1 turns a tenth of the would-be hits
// into misses: the mean RT must rise by about λ × hit ratio × mean miss
// penalty (margin ±10 %: this seed measures 4.53 ms against 4.58; the slack covers
// the cache contents shifting once bypassed objects are no longer
// inserted).
func TestDriftHonoursLambda(t *testing.T) {
	const lambda = 0.1
	cfg := fastDriftConfig()
	base, err := RunDrift(context.Background(), driftScenarioWithLambda(0), DriftCaching, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := RunDrift(context.Background(), driftScenarioWithLambda(lambda), DriftCaching, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if base.Served.Bypass != 0 {
		t.Fatalf("λ = 0 run bypassed %d requests", base.Served.Bypass)
	}
	if stale.Served.Bypass == 0 {
		t.Fatal("λ = 0.1 run bypassed no request: uncacheable requests are being served from cache")
	}
	hit := base.Served.HitRatio()
	missPenaltyMs := (base.MeanRTMs - cfg.FirstHopMs) / (1 - hit)
	want := lambda * hit * missPenaltyMs
	got := stale.MeanRTMs - base.MeanRTMs
	t.Logf("hit ratio %.3f, miss penalty %.1f ms: expected rise %.2f ms, measured %.2f ms (bypass %d of %d)",
		hit, missPenaltyMs, want, got, stale.Served.Bypass, stale.Requests)
	if got < 0.9*want || got > 1.1*want {
		t.Errorf("mean RT rose %.2f ms from λ = 0 to λ = %.1f, want %.2f ms ± 10%%", got, lambda, want)
	}
}

func TestDriftDeterministic(t *testing.T) {
	sc := smallDriftScenario()
	a, err := RunDrift(context.Background(), sc, DriftAdaptiveHybrid, fastDriftConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDrift(context.Background(), sc, DriftAdaptiveHybrid, fastDriftConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanRTMs != b.MeanRTMs || a.TotalTransferGBHops != b.TotalTransferGBHops {
		t.Fatal("identical seeds diverged")
	}
}

func TestDriftUnknownStrategy(t *testing.T) {
	sc := smallDriftScenario()
	if _, err := RunDrift(context.Background(), sc, DriftStrategy("bogus"), fastDriftConfig(), 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// msPerGBHop prices replica movement for the total-cost comparisons.
// At 20 ms per hop and ~1 MB objects, hauling a GB over one hop costs
// on the order of a thousand object round-trips; 1000 ms/GB·hop keeps
// the transfer term material without dwarfing the response-time term.
const msPerGBHop = 1000

// TestControlledBeatsStaticUnderDrift is the acceptance criterion:
// under the drift workload the controller-managed strategy's total
// cost — response time plus paid transfer — beats the static
// replication baseline, even though the controller only ever sees the
// request stream, never the true demand matrix.
func TestControlledBeatsStaticUnderDrift(t *testing.T) {
	sc := smallDriftScenario()
	cfg := fastDriftConfig()
	cfg.Epochs = 8

	controlled, err := RunDrift(context.Background(), sc, DriftControlled, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	static, err := RunDrift(context.Background(), sc, DriftStaticReplication, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}

	cc := controlled.TotalCostMs(msPerGBHop)
	sc2 := static.TotalCostMs(msPerGBHop)
	if cc >= sc2 {
		t.Fatalf("controlled total cost %.0f ms >= static %.0f ms", cc, sc2)
	}
	if controlled.Requests != static.Requests {
		t.Fatalf("request counts differ: %d vs %d", controlled.Requests, static.Requests)
	}
}

// TestControlledPaysBoundedTransfer: hysteresis and cool-down must keep
// the controller from re-placing at every boundary — its paid transfer
// stays below the clairvoyant adaptive hybrid's, which re-places
// unconditionally each epoch.
func TestControlledPaysBoundedTransfer(t *testing.T) {
	sc := smallDriftScenario()
	cfg := fastDriftConfig()

	controlled, err := RunDrift(context.Background(), sc, DriftControlled, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunDrift(context.Background(), sc, DriftAdaptiveHybrid, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if controlled.TotalTransferGBHops > adaptive.TotalTransferGBHops {
		t.Fatalf("controlled hauled %.2f GB·hops, clairvoyant adaptive %.2f",
			controlled.TotalTransferGBHops, adaptive.TotalTransferGBHops)
	}
	// The initial placement is paid for like everyone else's.
	if len(controlled.Epochs) == 0 || controlled.Epochs[0].TransferGBHops == 0 {
		t.Fatal("controlled strategy got its initial placement for free")
	}
}

// TestControlledStationaryDoesNotChurn: with drift frozen the
// controller must not keep moving replicas after the initial placement
// settles.
func TestControlledStationaryDoesNotChurn(t *testing.T) {
	sc := smallDriftScenario()
	cfg := fastDriftConfig()
	cfg.Drift = 0

	res, err := RunDrift(context.Background(), sc, DriftControlled, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, e := range res.Epochs[2:] {
		if e.TransferGBHops > 0 {
			moved++
		}
	}
	if moved > 0 {
		t.Fatalf("%d late epochs still paid transfer under frozen demand", moved)
	}
}

func TestDriftComparison(t *testing.T) {
	opts := QuickOptions()
	cfg := DefaultDriftConfig()
	cfg.Epochs = 4
	cfg.RequestsPerEpoch = 30000
	cfg.Warmup = 30000
	rows, err := DriftComparison(context.Background(), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byStrat := map[DriftStrategy]DriftRow{}
	for _, r := range rows {
		if r.MeanRTMs <= 0 {
			t.Fatalf("%s: empty row", r.Strategy)
		}
		byStrat[r.Strategy] = r
	}
	// Caching pays zero transfer; every replica strategy pays some.
	if byStrat[DriftCaching].TotalTransferGBHops != 0 {
		t.Error("caching paid transfer")
	}
	if byStrat[DriftStaticHybrid].TotalTransferGBHops <= 0 {
		t.Error("static hybrid paid no transfer")
	}
	// Adaptive re-placement hauls strictly more bytes than static.
	if byStrat[DriftAdaptiveHybrid].TotalTransferGBHops <= byStrat[DriftStaticHybrid].TotalTransferGBHops {
		t.Error("adaptive hybrid transfer not above static hybrid")
	}
	// The hybrid family beats pure static replication on latency.
	if byStrat[DriftStaticHybrid].MeanRTMs >= byStrat[DriftStaticReplication].MeanRTMs {
		t.Errorf("static hybrid %.2f not better than static replication %.2f",
			byStrat[DriftStaticHybrid].MeanRTMs, byStrat[DriftStaticReplication].MeanRTMs)
	}

	if out := FormatDriftRows(rows, cfg); !strings.Contains(out, "transfer") {
		t.Error("formatting lost the header")
	}
}
