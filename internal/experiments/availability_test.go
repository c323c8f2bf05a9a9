package experiments

import (
	"context"
	"strings"
	"testing"

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
// draw: the requested numbers of distinct, in-range servers and
// origins.
func TestRandomCrashesDistinct(t *testing.T) {
	sc, err := buildScenarioForTest(QuickOptions().Base)
	if err != nil {
		t.Fatal(err)
	}
	servers, origins, err := randomCrashes(sc, 3, 4, xrand.New(44))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		ids   []int
		want  int
		bound int
	}{{"server", servers, 3, sc.Sys.N()}, {"origin", origins, 4, sc.Sys.M()}} {
		if len(c.ids) != c.want {
			t.Fatalf("drew %d %ss, want %d", len(c.ids), c.kind, c.want)
		}
		seen := map[int]bool{}
		for _, id := range c.ids {
			if id < 0 || id >= c.bound || seen[id] {
				t.Fatalf("%s %d out of range or drawn twice: %v", c.kind, id, c.ids)
			}
			seen[id] = true
		}
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
