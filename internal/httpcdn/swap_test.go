package httpcdn

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
)

// swapScenario is a small cluster with a hybrid placement that holds
// replicas.
func swapScenario(t *testing.T) (*scenario.Scenario, *placement.Result) {
	t.Helper()
	w := workload.DefaultConfig()
	w.Servers = 4
	w.LowSites, w.MediumSites, w.HighSites = 1, 2, 1
	w.ObjectsPerSite = 40
	sc, err := scenario.Build(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   2,
			StubNodesPerStub:      3,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.3,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Placement.Replicas() == 0 {
		t.Fatal("hybrid placed no replicas")
	}
	return sc, hybrid
}

// TestSwapPlacementRejectsForeignSystem pins the deployment check.
func TestSwapPlacementRejectsForeignSystem(t *testing.T) {
	sc, hybrid := swapScenario(t)
	cl, err := Start(sc, hybrid.Placement, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	other := *sc.Sys
	other.Capacity = append([]int64(nil), sc.Sys.Capacity...)
	other.Capacity[0]++
	if err := cl.SwapPlacement(placement.GreedyGlobal(&other).Placement); err == nil {
		t.Fatal("swap accepted a placement with different capacities")
	}

	// A placement on a demand-derived system is explicitly allowed.
	derived, err := sc.Sys.WithDemand(sc.Sys.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SwapPlacement(placement.GreedyGlobal(derived).Placement); err != nil {
		t.Fatalf("swap rejected a WithDemand-derived placement: %v", err)
	}
}
