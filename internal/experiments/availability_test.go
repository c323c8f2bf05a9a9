package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

func TestAvailabilityComparison(t *testing.T) {
	opts := QuickOptions()
	opts.Sim.Requests = 50000
	opts.Sim.Warmup = 50000
	rows, err := AvailabilityComparison(context.Background(), opts, []int{0, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 (3 mechanisms x 2 levels)", len(rows))
	}
	get := func(m Mechanism, k int) AvailabilityRow {
		for _, r := range rows {
			if r.Mechanism == m && r.FailedOrigins == k {
				return r
			}
		}
		t.Fatalf("row (%s, %d) missing", m, k)
		return AvailabilityRow{}
	}

	// With no failed origins nothing is unavailable.
	for _, m := range []Mechanism{MechReplication, MechCaching, MechHybrid} {
		if u := get(m, 0).Unavailability; u != 0 {
			t.Errorf("%s: unavailability %v with all origins up", m, u)
		}
	}
	// With failed origins, pure caching loses the most traffic, and the
	// hybrid (which holds real replicas) loses no more than caching.
	cach := get(MechCaching, 4)
	hyb := get(MechHybrid, 4)
	if cach.Unavailability == 0 {
		t.Error("caching fully available with 4 dead origins (suspicious)")
	}
	if hyb.Unavailability > cach.Unavailability {
		t.Errorf("hybrid unavailability %.4f worse than caching %.4f",
			hyb.Unavailability, cach.Unavailability)
	}
	// Replication keeps no caches, so it can never serve dead-origin
	// content at stale risk.
	if get(MechReplication, 4).StaleRiskFrac != 0 {
		t.Error("pure replication reported stale-risk serves")
	}

	if out := FormatAvailabilityRows(rows); !strings.Contains(out, "unavailable") {
		t.Error("formatting lost the header")
	}
}

// TestRandomCrashesDistinct pins the availability experiment's failure
// draw: the requested numbers of distinct servers and distinct origins,
// every one crashing at the measurement boundary for good.
func TestRandomCrashesDistinct(t *testing.T) {
	sc, err := buildScenarioForTest(QuickOptions().Base)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := randomCrashes(sc, 100, 3, 4, xrand.New(44))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[fault.Component]map[int]bool{fault.Server: {}, fault.Origin: {}}
	for _, e := range sched.Events() {
		if e.At != 100 || e.Kind != fault.Crash {
			t.Fatalf("event %+v, want a crash at 100", e)
		}
		if seen[e.Comp][e.ID] {
			t.Fatalf("%s %d drawn twice", e.Comp, e.ID)
		}
		seen[e.Comp][e.ID] = true
	}
	if len(seen[fault.Server]) != 3 || len(seen[fault.Origin]) != 4 {
		t.Fatalf("drew %d servers, %d origins", len(seen[fault.Server]), len(seen[fault.Origin]))
	}
}

// TestAvailabilityComparisonRejects checks that bad inputs come back as
// errors rather than panics: a negative warm-up, every server failed,
// and more origins failed than exist.
func TestAvailabilityComparisonRejects(t *testing.T) {
	opts := QuickOptions()
	sc, err := buildScenarioForTest(opts.Base)
	if err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.Sim.Warmup = -1
	if _, err := AvailabilityComparison(context.Background(), bad, []int{0}, 1); err == nil {
		t.Error("negative warm-up accepted")
	}
	if _, err := AvailabilityComparison(context.Background(), opts, []int{0}, sc.Sys.N()); err == nil {
		t.Error("every server failed, accepted")
	}
	if _, err := AvailabilityComparison(context.Background(), opts, []int{sc.Sys.M() + 1}, 0); err == nil {
		t.Error("more failed origins than sites, accepted")
	}
}
