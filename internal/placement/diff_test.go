package placement

import (
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

func TestDiffFromScratch(t *testing.T) {
	sys, _ := randomSystem(xrand.New(3), 6, 5, 0.4)
	res := GreedyGlobal(sys)
	d := Diff(nil, res.Placement)
	if len(d.Dropped) != 0 {
		t.Fatalf("diff from nil dropped %d replicas", len(d.Dropped))
	}
	if len(d.Created) != res.Placement.Replicas() {
		t.Fatalf("diff from nil created %d, placement holds %d", len(d.Created), res.Placement.Replicas())
	}
	var want float64
	for _, r := range d.Created {
		want += float64(sys.SiteBytes[r.Site]) * sys.CostOrigin[r.Server][r.Site] / 1e9
	}
	if d.TransferGBHops != want {
		t.Fatalf("transfer %v, want %v", d.TransferGBHops, want)
	}
}

func TestDiffCreatedDroppedPartition(t *testing.T) {
	sys, _ := randomSystem(xrand.New(7), 8, 6, 0.35)
	old := GreedyGlobal(sys).Placement

	// A second placement with different decisions: random.
	new_ := Random(sys, xrand.New(99)).Placement

	d := Diff(old, new_)
	seen := make(map[Replica]bool)
	for _, r := range d.Created {
		if old.Has(r.Server, r.Site) || !new_.Has(r.Server, r.Site) {
			t.Fatalf("created %+v is not new-only", r)
		}
		seen[r] = true
	}
	for _, r := range d.Dropped {
		if !old.Has(r.Server, r.Site) || new_.Has(r.Server, r.Site) {
			t.Fatalf("dropped %+v is not old-only", r)
		}
		if seen[r] {
			t.Fatalf("replica %+v both created and dropped", r)
		}
	}
	// Identity: no diff against itself, and diff round-trips counts.
	if d2 := Diff(old, old); !d2.Empty() || d2.TransferGBHops != 0 {
		t.Fatalf("self-diff not empty: %+v", d2)
	}
	if got := old.Replicas() - len(d.Dropped) + len(d.Created); got != new_.Replicas() {
		t.Fatalf("replica accounting: %d, want %d", got, new_.Replicas())
	}
}

func TestRebuildOnPreservesReplicaSet(t *testing.T) {
	sys, _ := randomSystem(xrand.New(5), 6, 5, 0.4)
	p := GreedyGlobal(sys).Placement
	demand := make([][]float64, sys.N())
	for i := range demand {
		demand[i] = make([]float64, sys.M())
		for j := range demand[i] {
			demand[i][j] = 1 / float64(sys.N()*sys.M())
		}
	}
	sys2, err := sys.WithDemand(demand)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.RebuildOn(sys2)
	if err != nil {
		t.Fatal(err)
	}
	if !Diff(p, q).Empty() {
		t.Fatal("rebuild changed the replica set")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q.Cost(core.ZeroHitRatio) == p.Cost(core.ZeroHitRatio) && sysDemandDiffers(sys, demand) {
		t.Log("costs equal under different demand (possible but unusual)")
	}
}

// sysDemandDiffers reports whether demand differs from sys.Demand.
func sysDemandDiffers(sys *core.System, demand [][]float64) bool {
	for i := range demand {
		for j := range demand[i] {
			if demand[i][j] != sys.Demand[i][j] {
				return true
			}
		}
	}
	return false
}
