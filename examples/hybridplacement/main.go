// hybridplacement: watch the Figure 2 algorithm work, iteration by
// iteration. Each line is one replica creation: the chosen (server, site)
// pair, the model-estimated net benefit (redirection cost removed minus
// the cache hit ratio sacrificed), and the predicted objective D after
// the step.
//
//	go run ./examples/hybridplacement
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	cfg := repro.QuickOptions().Base
	cfg.CapacityFrac = 0.10
	sc, err := repro.BuildScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hybrid placement on %d servers / %d sites, 10%% capacity\n",
		sc.Sys.N(), sc.Sys.M())
	fmt.Println("(the algorithm starts from all-storage-is-cache and adds replicas")
	fmt.Println(" while their benefit exceeds the cache space they consume)")
	fmt.Println()
	fmt.Printf("%4s %7s %5s %6s %12s %14s\n",
		"step", "server", "site", "class", "benefit", "predicted D")

	res, err := repro.Place(sc, repro.PlacementConfig{})
	if err != nil {
		log.Fatal(err)
	}
	for k, s := range res.Steps {
		site := sc.Work.Sites[s.Site]
		fmt.Printf("%4d %7d %5d %6s %12.5f %14.5f\n",
			k+1, s.Server, s.Site, site.Class, s.Benefit, s.PredictedCost)
	}

	fmt.Println()
	fmt.Printf("created %d replicas; final predicted cost %.5f hops/request\n",
		res.Placement.Replicas(), res.PredictedCost)

	// Show where the storage went on a few servers.
	fmt.Println()
	fmt.Println("per-server storage split (first 5 servers):")
	for i := 0; i < 5 && i < sc.Sys.N(); i++ {
		total := sc.Sys.Capacity[i]
		cache := res.Placement.Free(i)
		var sites []int
		for j := 0; j < sc.Sys.M(); j++ {
			if res.Placement.Has(i, j) {
				sites = append(sites, j)
			}
		}
		fmt.Printf("  server %2d: %3.0f%% replicas %v, %3.0f%% cache\n",
			i, 100*float64(total-cache)/float64(total), sites,
			100*float64(cache)/float64(total))
	}

	// The early replicas should overwhelmingly be high-popularity sites.
	counts := map[string]int{}
	for _, s := range res.Steps {
		counts[sc.Work.Sites[s.Site].Class.String()]++
	}
	fmt.Printf("\nreplicas by site class: %v\n", counts)
}
