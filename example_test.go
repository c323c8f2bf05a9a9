package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"repro"
)

// The analytical model used stand-alone, as §3.2 intends: predict the
// LRU hit ratio of a 2000-object Zipf(1.0) site at several cache sizes.
func ExampleNewHitModel() {
	pred, err := repro.NewHitModel(repro.HitModelConfig{
		Specs:          []repro.SiteSpec{{Objects: 2000, Theta: 1.0}},
		Weights:        []float64{1}, // request weights (single site)
		AvgObjectBytes: 1,            // unit => bytes == slots
		MaxCacheBytes:  2000,         // largest cache that will be queried
	})
	if err != nil {
		panic(err)
	}
	for _, slots := range []int64{100, 400, 1600} {
		fmt.Printf("B=%-5d h=%.2f\n", slots, pred.SiteHitRatio(0, slots))
	}
	// Output:
	// B=100   h=0.50
	// B=400   h=0.70
	// B=1600  h=0.91
}

// Building a scenario and running the paper's three mechanisms on one
// trace. Mean latencies vary with the scenario; the ordering is the
// paper's headline result.
func ExamplePlace() {
	cfg := repro.QuickOptions().Base
	cfg.CapacityFrac = 0.10
	sc := repro.MustBuildScenario(cfg)

	place := func(s repro.Strategy) *repro.Placement {
		res, err := repro.Place(sc, repro.PlacementConfig{Strategy: s})
		if err != nil {
			panic(err)
		}
		return res.Placement
	}
	hybrid := place(repro.StrategyHybrid)
	replication := place(repro.StrategyReplication)
	caching := place(repro.StrategyCaching)

	simCfg := repro.DefaultSim()
	simCfg.Requests, simCfg.Warmup = 60000, 60000

	mHybrid := repro.MustSimulate(context.Background(), sc, hybrid, simCfg, 1)
	simCfg.UseCache = false
	mRepl := repro.MustSimulate(context.Background(), sc, replication, simCfg, 1)
	simCfg.UseCache = true
	mCache := repro.MustSimulate(context.Background(), sc, caching, simCfg, 1)

	fmt.Println("hybrid beats replication:", mHybrid.MeanRTMs < mRepl.MeanRTMs)
	fmt.Println("hybrid beats caching:", mHybrid.MeanRTMs < mCache.MeanRTMs)
	fmt.Println("hybrid placed replicas:", hybrid.Replicas() > 0)
	// Output:
	// hybrid beats replication: true
	// hybrid beats caching: true
	// hybrid placed replicas: true
}

// Watching the Figure 2 algorithm work: it starts from
// all-storage-is-cache and creates one replica per step, the (server,
// site) pair of greatest net benefit, while that benefit exceeds the
// cache space the replica consumes. The replicas go overwhelmingly to
// high-popularity sites.
func ExamplePlace_steps() {
	cfg := repro.QuickOptions().Base
	cfg.CapacityFrac = 0.10
	sc := repro.MustBuildScenario(cfg)
	res, err := repro.Place(sc, repro.PlacementConfig{})
	if err != nil {
		panic(err)
	}
	byClass := map[string]int{}
	for k, s := range res.Steps {
		class := sc.Work.Sites[s.Site].Class.String()
		byClass[class]++
		if k < 5 {
			fmt.Printf("step %d: server %d, site %d (%s)\n", k+1, s.Server, s.Site, class)
		}
	}
	fmt.Println("replicas:", res.Placement.Replicas())
	fmt.Println("by class:", byClass)
	// Output:
	// step 1: server 2, site 6 (high)
	// step 2: server 2, site 11 (high)
	// step 3: server 9, site 4 (high)
	// step 4: server 6, site 4 (high)
	// step 5: server 9, site 6 (high)
	// replicas: 16
	// by class: map[high:13 medium:3]
}

// Tracing a run and replaying its span trace produces bit-identical
// metrics. The simulator traces measured requests only, so both runs
// skip the warm-up.
func ExampleSimulateTrace() {
	sc := repro.MustBuildScenario(repro.QuickOptions().Base)
	p, err := repro.Place(sc, repro.PlacementConfig{Strategy: repro.StrategyCaching})
	if err != nil {
		panic(err)
	}
	simCfg := repro.DefaultSim()
	simCfg.Requests, simCfg.Warmup = 30000, 0

	var trace bytes.Buffer
	traced := simCfg
	traced.Tracer = repro.NewTracer(&trace)
	live := repro.MustSimulate(context.Background(), sc, p.Placement, traced, 7)
	if err := traced.Tracer.Flush(); err != nil {
		panic(err)
	}

	replay, err := repro.SimulateTrace(context.Background(), sc, p.Placement, simCfg, &trace)
	if err != nil {
		panic(err)
	}
	fmt.Println("replayed requests:", replay.Requests)
	fmt.Println("cache hits:", replay.CacheHits > 0)
	fmt.Println("identical metrics:", reflect.DeepEqual(live, replay))
	// Output:
	// replayed requests: 30000
	// cache hits: true
	// identical metrics: true
}
