// Quickstart: build one paper-scale CDN scenario, place replicas three
// ways (pure replication, pure caching, hybrid), simulate the identical
// request trace against each, and print the comparison of §5.2.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A reduced-scale scenario so the example finishes in ~1 s; swap
	// in repro.DefaultScenario() for the full §5.1 setup.
	cfg := repro.QuickOptions().Base
	cfg.CapacityFrac = 0.10
	sc, err := repro.BuildScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d servers, %d sites, %d-node topology, capacity %.0f%% of %d MB total\n\n",
		sc.Sys.N(), sc.Sys.M(), sc.Topo.G.N(),
		100*cfg.CapacityFrac, sc.Work.TotalBytes>>20)

	place := func(s repro.Strategy) *repro.Placement {
		res, err := repro.Place(sc, repro.PlacementConfig{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		return res.Placement
	}
	hybrid := place(repro.StrategyHybrid)
	replication := place(repro.StrategyReplication)
	caching := place(repro.StrategyCaching)

	simCfg := repro.DefaultSim()
	simCfg.Requests = 200000
	simCfg.Warmup = 100000

	const traceSeed = 42
	run := func(name string, p *repro.Placement, useCache bool) {
		c := simCfg
		c.UseCache = useCache
		m := repro.MustSimulate(context.Background(), sc, p, c, traceSeed)
		fmt.Printf("%-12s mean RT %7.2f ms | mean cost %5.3f hops | local %5.1f%% | replicas %d\n",
			name, m.MeanRTMs, m.MeanHops, 100*m.LocalFraction(), p.Replicas())
	}
	run("replication", replication, false)
	run("caching", caching, true)
	run("hybrid", hybrid, true)

	fmt.Println("\nThe hybrid scheme should show the lowest mean response time:")
	fmt.Println("it keeps enough replicas to bound the worst case while the cache")
	fmt.Println("absorbs the most popular pages of every site at the first hop.")
}
