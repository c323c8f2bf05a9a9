package control

import (
	"math"
	"testing"

	"repro/internal/placement"
)

// TestShardedMatchesSingle pins the aggregation law: a sharded
// estimator fed the same observations as a single estimator produces
// the same demand estimate (up to float summation order), because the
// per-cell EWMA is independent of which shard holds the cell.
func TestShardedMatchesSingle(t *testing.T) {
	cfg := EstimatorConfig{Servers: 6, Sites: 8}
	single, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedEstimator(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(round int) {
		for i := 0; i < 6; i++ {
			for j := 0; j < 8; j++ {
				k := int64((i*8+j+round)%5 + 1)
				single.ObserveN(i, j, k)
				sharded.ObserveN(i, j, k)
			}
		}
	}
	for round := 0; round < 3; round++ {
		feed(round)
		st, sht := single.Roll(), sharded.Roll()
		if st != sht {
			t.Fatalf("round %d: window totals %d (single) vs %d (sharded)", round, st, sht)
		}
	}
	if single.Observed() != sharded.Observed() {
		t.Fatalf("observed %d vs %d", single.Observed(), sharded.Observed())
	}
	d1, ok1 := single.Demand()
	d2, ok2 := sharded.Demand()
	if !ok1 || !ok2 {
		t.Fatal("no demand signal")
	}
	for i := range d1 {
		for j := range d1[i] {
			if math.Abs(d1[i][j]-d2[i][j]) > 1e-12 {
				t.Fatalf("demand[%d][%d] = %v (single) vs %v (sharded)", i, j, d1[i][j], d2[i][j])
			}
		}
	}
	for i, v := range single.ServerRates() {
		if math.Abs(v-sharded.ServerRates()[i]) > 1e-9 {
			t.Fatalf("server rate %d differs", i)
		}
	}
	for j, v := range single.SiteRates() {
		if math.Abs(v-sharded.SiteRates()[j]) > 1e-9 {
			t.Fatalf("site rate %d differs", j)
		}
	}
	w1, w2 := single.WindowTotals(), sharded.WindowTotals()
	if len(w1) != len(w2) {
		t.Fatalf("window rings %d vs %d entries", len(w1), len(w2))
	}
	for k := range w1 {
		if w1[k] != w2[k] {
			t.Fatalf("window[%d] = %d vs %d", k, w1[k], w2[k])
		}
	}
}

// TestShardedOwnershipBalance: with default vnodes no shard is starved
// and the key counts in Status sum to the key space.
func TestShardedOwnershipBalance(t *testing.T) {
	cfg := EstimatorConfig{Servers: 50, Sites: 20}
	s, err := NewShardedEstimator(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	page := s.Status()
	if page.KeySpace != 1000 || len(page.Shards) != 4 {
		t.Fatalf("key space %d, shards %d", page.KeySpace, len(page.Shards))
	}
	total := 0
	for _, sh := range page.Shards {
		total += sh.Keys
		if sh.Keys == 0 {
			t.Fatalf("shard %d owns zero keys", sh.Shard)
		}
		// A perfectly even split is 250; consistent hashing is allowed
		// to wobble, but an order-of-magnitude skew means the ring is
		// broken.
		if sh.Keys < 50 || sh.Keys > 600 {
			t.Fatalf("shard %d owns %d of 1000 keys — ring badly skewed", sh.Shard, sh.Keys)
		}
	}
	if total != 1000 {
		t.Fatalf("shard key counts sum to %d, want 1000", total)
	}
}

// TestShardedConsistentResharding pins the property that justifies the
// ring: growing S shards to S+1 moves roughly 1/(S+1) of the keys, not
// all of them (key mod S would reshuffle nearly everything).
func TestShardedConsistentResharding(t *testing.T) {
	cfg := EstimatorConfig{Servers: 50, Sites: 20}
	s4, err := NewShardedEstimator(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := NewShardedEstimator(cfg, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for edge := 0; edge < 50; edge++ {
		for site := 0; site < 20; site++ {
			if s4.Owner(edge, site) != s5.Owner(edge, site) {
				moved++
			}
		}
	}
	frac := float64(moved) / 1000
	if frac == 0 {
		t.Fatal("no key moved when adding a shard — ring ignores shard count")
	}
	// Ideal is 1/5 = 0.20; allow generous wobble but fail well before
	// the ~0.8 a mod-S scheme would produce.
	if frac > 0.45 {
		t.Fatalf("adding one shard moved %.0f%% of keys — not consistent hashing", 100*frac)
	}
}

// TestControllerWithShardedSource: the controller reconciles against a
// ShardedEstimator through Config.Source exactly as it does against a
// plain Estimator.
func TestControllerWithShardedSource(t *testing.T) {
	sc := testScenario(t)
	sharded, err := NewShardedEstimator(EstimatorConfig{
		Servers: sc.Sys.N(), Sites: sc.Sys.M(),
	}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := NewModelTarget(placement.None(sc.Sys).Placement)
	ctrl, err := New(Config{
		Base:           sc.Sys,
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
		Target:         target,
		Source:         sharded,
		Hysteresis:     -1,
		CooldownRounds: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Estimator() != nil {
		t.Fatal("Estimator() must be nil for a custom Source")
	}
	// Feed the scenario's true demand through the sharded tap.
	for i := 0; i < sc.Sys.N(); i++ {
		for j := 0; j < sc.Sys.M(); j++ {
			sharded.ObserveN(i, j, int64(1+sc.Sys.Demand[i][j]*1e6))
		}
	}
	rep, err := ctrl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeApplied {
		t.Fatalf("outcome %s, want applied", rep.Outcome)
	}
	if target.Placement().Replicas() == 0 {
		t.Fatal("no replicas placed from sharded demand")
	}
}
