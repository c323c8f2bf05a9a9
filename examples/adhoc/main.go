// adhoc: the Figure 5 scenario — is a fixed storage split between
// caching and replication good enough, or does the hybrid algorithm's
// model-driven split matter?
//
// The example sweeps ad-hoc cache fractions from 0% (pure greedy-global
// replication) to 100% (pure caching) and compares each against the
// hybrid algorithm on the same request trace.
//
//	go run ./examples/adhoc
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	cfg := repro.QuickOptions().Base
	cfg.CapacityFrac = 0.05
	sc, err := repro.BuildScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}

	simCfg := repro.DefaultSim()
	simCfg.Requests = 150000
	simCfg.Warmup = 75000
	const traceSeed = 11

	fmt.Printf("ad-hoc cache splits vs hybrid — %d servers, %d sites, 5%% capacity\n\n",
		sc.Sys.N(), sc.Sys.M())
	fmt.Printf("%-14s %12s %12s %10s\n", "mechanism", "mean RT (ms)", "cost (hops)", "replicas")

	for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		res, err := repro.Place(sc, repro.PlacementConfig{Strategy: repro.StrategyAdHoc, CacheFrac: frac})
		if err != nil {
			log.Fatal(err)
		}
		c := simCfg
		c.UseCache = frac > 0
		m := repro.MustSimulate(context.Background(), sc, res.Placement, c, traceSeed)
		fmt.Printf("cache=%3.0f%%     %12.2f %12.3f %10d\n",
			100*frac, m.MeanRTMs, m.MeanHops, res.Placement.Replicas())
	}

	hyb, err := repro.Place(sc, repro.PlacementConfig{})
	if err != nil {
		log.Fatal(err)
	}
	m := repro.MustSimulate(context.Background(), sc, hyb.Placement, simCfg, traceSeed)
	fmt.Printf("%-14s %12.2f %12.3f %10d\n", "hybrid", m.MeanRTMs, m.MeanHops, hyb.Placement.Replicas())

	fmt.Println()
	fmt.Println("The hybrid line should be at or below every fixed split: the model")
	fmt.Println("sizes each server's cache from the measured Zipf parameter instead")
	fmt.Println("of guessing one global fraction (§5.2, Figure 5).")
}
