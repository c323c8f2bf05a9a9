package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// smallScenario mirrors the scenario test helper: 22-node topology,
// 8 servers, 8 sites of 100 objects, 15% capacity.
func smallScenario(seed uint64, lambda float64) *scenario.Scenario {
	w := workload.DefaultConfig()
	w.Servers = 8
	w.LowSites, w.MediumSites, w.HighSites = 2, 4, 2
	w.ObjectsPerSite = 100
	w.Lambda = lambda
	return scenario.MustBuild(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   2,
			StubNodesPerStub:      5,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.15,
		Seed:         seed,
	})
}

func fastConfig(useCache bool) Config {
	cfg := DefaultConfig()
	cfg.Requests = 60000
	cfg.Warmup = 30000
	cfg.UseCache = useCache
	return cfg
}

// MustRun is Run for known-good configurations.
func MustRun(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, r *xrand.Source) *Metrics {
	m, err := Run(ctx, sc, p, cfg, r)
	if err != nil {
		panic(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, m := range []func(*Config){
		func(c *Config) { c.Requests = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.FirstHopMs = -1 },
		func(c *Config) { c.PerHopMs = -1 },
	} {
		c := DefaultConfig()
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunRejectsForeignPlacement(t *testing.T) {
	a := smallScenario(1, 0)
	b := smallScenario(2, 0)
	p := core.NewPlacement(b.Sys)
	if _, err := Run(context.Background(), a, p, fastConfig(true), xrand.New(1)); err == nil {
		t.Fatal("placement from another system accepted")
	}
}

func TestFullReplicationAllLocal(t *testing.T) {
	sc := smallScenario(3, 0)
	// Give servers unbounded storage and replicate everything.
	for i := range sc.Sys.Capacity {
		sc.Sys.Capacity[i] = sc.Work.TotalBytes * 2
	}
	p := core.NewPlacement(sc.Sys)
	for i := 0; i < sc.Sys.N(); i++ {
		for j := 0; j < sc.Sys.M(); j++ {
			if err := p.Replicate(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := MustRun(context.Background(), sc, p, fastConfig(false), xrand.New(4))
	if m.LocalReplica != int64(m.Requests) {
		t.Fatalf("local %d of %d requests", m.LocalReplica, m.Requests)
	}
	if m.MeanHops != 0 {
		t.Fatalf("mean hops %v, want 0", m.MeanHops)
	}
	if m.MeanRTMs != 20 {
		t.Fatalf("mean RT %v ms, want exactly the 20 ms first hop", m.MeanRTMs)
	}
	if m.LocalFraction() != 1 {
		t.Fatalf("local fraction %v, want 1", m.LocalFraction())
	}
}

func TestPureReplicationNoCacheEvents(t *testing.T) {
	sc := smallScenario(5, 0)
	res := placement.GreedyGlobal(sc.Sys)
	m := MustRun(context.Background(), sc, res.Placement, fastConfig(false), xrand.New(6))
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatal("cache events recorded with UseCache=false")
	}
	if m.Requests != 60000 {
		t.Fatalf("measured %d requests, want 60000", m.Requests)
	}
	if m.MeanHops <= 0 {
		t.Fatal("pure replication at 15% capacity should still redirect some requests")
	}
}

func TestPureCachingHasHitsAndMisses(t *testing.T) {
	sc := smallScenario(7, 0)
	p := core.NewPlacement(sc.Sys) // no replicas: pure caching
	m := MustRun(context.Background(), sc, p, fastConfig(true), xrand.New(8))
	if m.CacheHits == 0 || m.CacheMisses == 0 {
		t.Fatalf("hits=%d misses=%d: expected both nonzero", m.CacheHits, m.CacheMisses)
	}
	hr := m.HitRatio()
	if hr <= 0.05 || hr >= 0.999 {
		t.Fatalf("hit ratio %v implausible", hr)
	}
	if m.LocalReplica != 0 {
		t.Fatal("replica hits without replicas")
	}
	// The CDF must jump at the 20 ms first-hop latency — the caching
	// signature of Figure 3.
	cdf := m.CDF()
	if at20 := cdf.At(20); math.Abs(at20-hr) > 0.02 {
		t.Fatalf("CDF at 20 ms = %v, want ~hit ratio %v", at20, hr)
	}
}

func TestResponseTimesQuantized(t *testing.T) {
	sc := smallScenario(9, 0)
	p := core.NewPlacement(sc.Sys)
	m := MustRun(context.Background(), sc, p, fastConfig(true), xrand.New(10))
	if len(m.ResponseTimesMs) != m.Requests {
		t.Fatalf("%d response times for %d requests", len(m.ResponseTimesMs), m.Requests)
	}
	for _, rt := range m.ResponseTimesMs {
		if rt < 20 {
			t.Fatalf("response time %v below the first-hop minimum", rt)
		}
		if r := math.Mod(rt, 20); r > 1e-9 && r < 20-1e-9 {
			t.Fatalf("response time %v not a multiple of the 20 ms hop delay", rt)
		}
	}
}

func TestKeepResponseTimesOff(t *testing.T) {
	sc := smallScenario(11, 0)
	cfg := fastConfig(true)
	cfg.KeepResponseTimes = false
	m := MustRun(context.Background(), sc, core.NewPlacement(sc.Sys), cfg, xrand.New(12))
	if m.ResponseTimesMs != nil {
		t.Fatal("response times retained despite KeepResponseTimes=false")
	}
	if m.MeanRTMs <= 0 {
		t.Fatal("mean RT missing")
	}
}

func TestLambdaBypass(t *testing.T) {
	sc := smallScenario(13, 0.2)
	p := core.NewPlacement(sc.Sys)
	m := MustRun(context.Background(), sc, p, fastConfig(true), xrand.New(14))
	frac := float64(m.Bypass) / float64(m.Requests)
	if math.Abs(frac-0.2) > 0.02 {
		t.Fatalf("bypass fraction %v, want ~0.2", frac)
	}
	// Bypass traffic must depress the local fraction versus λ=0.
	sc0 := smallScenario(13, 0)
	m0 := MustRun(context.Background(), sc0, core.NewPlacement(sc0.Sys), fastConfig(true), xrand.New(14))
	if m.LocalFraction() >= m0.LocalFraction() {
		t.Fatalf("local fraction with λ=0.2 (%v) not below λ=0 (%v)",
			m.LocalFraction(), m0.LocalFraction())
	}
}

func TestDeterministicRuns(t *testing.T) {
	sc := smallScenario(15, 0.1)
	p := core.NewPlacement(sc.Sys)
	a := MustRun(context.Background(), sc, p, fastConfig(true), xrand.New(16))
	b := MustRun(context.Background(), sc, p, fastConfig(true), xrand.New(16))
	if a.MeanRTMs != b.MeanRTMs || a.CacheHits != b.CacheHits || a.MeanHops != b.MeanHops {
		t.Fatal("identical seeds produced different metrics")
	}
}

func TestRemoteVsOriginAccounting(t *testing.T) {
	sc := smallScenario(17, 0)
	res := placement.GreedyGlobal(sc.Sys)
	m := MustRun(context.Background(), sc, res.Placement, fastConfig(false), xrand.New(18))
	redirected := int64(m.Requests) - m.LocalReplica
	if m.RemoteServer+m.OriginFetch != redirected {
		t.Fatalf("remote %d + origin %d != redirected %d",
			m.RemoteServer, m.OriginFetch, redirected)
	}
}

// TestHybridBeatsBothStandalones is the paper's headline result (§5.2):
// the hybrid mechanism outperforms both pure replication and pure caching
// in user-perceived latency.
func TestHybridBeatsBothStandalones(t *testing.T) {
	sc := smallScenario(19, 0)
	specs := sc.Work.Specs()

	repl := placement.GreedyGlobal(sc.Sys)
	pure := placement.None(sc.Sys)
	hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          specs,
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastConfig(true)
	cfgNoCache := fastConfig(false)
	mRepl := MustRun(context.Background(), sc, repl.Placement, cfgNoCache, xrand.New(20))
	mPure := MustRun(context.Background(), sc, pure.Placement, cfg, xrand.New(20))
	mHyb := MustRun(context.Background(), sc, hyb.Placement, cfg, xrand.New(20))

	if mHyb.MeanRTMs >= mRepl.MeanRTMs {
		t.Errorf("hybrid %.2f ms not better than replication %.2f ms",
			mHyb.MeanRTMs, mRepl.MeanRTMs)
	}
	if mHyb.MeanRTMs >= mPure.MeanRTMs {
		t.Errorf("hybrid %.2f ms not better than caching %.2f ms",
			mHyb.MeanRTMs, mPure.MeanRTMs)
	}
}

// TestModelPredictsSimulatedCost is the Figure 6 validation: the greedy
// algorithm's model-predicted cost per request must track the trace-driven
// simulation within a small margin (the paper reports < 7% error).
func TestModelPredictsSimulatedCost(t *testing.T) {
	sc := smallScenario(21, 0)
	specs := sc.Work.Specs()
	hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          specs,
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(true)
	cfg.Requests = 150000
	cfg.Warmup = 80000
	m := MustRun(context.Background(), sc, hyb.Placement, cfg, xrand.New(22))
	predicted := hyb.PredictedCost // hops per request: demand sums to 1
	actual := m.MeanHops
	if actual == 0 {
		t.Skip("degenerate scenario: no redirected traffic")
	}
	relErr := math.Abs(predicted-actual) / actual
	if relErr > 0.15 {
		t.Fatalf("predicted %.4f vs simulated %.4f hops/request (err %.1f%%)",
			predicted, actual, 100*relErr)
	}
}

func TestCachePolicyVariantsRun(t *testing.T) {
	sc := smallScenario(23, 0)
	p := core.NewPlacement(sc.Sys)
	for _, pol := range []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU, cache.PolicyDelayedLRU} {
		cfg := fastConfig(true)
		cfg.Policy = pol
		m := MustRun(context.Background(), sc, p, cfg, xrand.New(24))
		if m.Requests != cfg.Requests {
			t.Fatalf("%s: measured %d requests", pol, m.Requests)
		}
		if m.CacheHits == 0 {
			t.Fatalf("%s: no cache hits", pol)
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	sc := smallScenario(25, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	cfg.KeepResponseTimes = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustRun(context.Background(), sc, p, cfg, xrand.New(uint64(i)))
	}
}
