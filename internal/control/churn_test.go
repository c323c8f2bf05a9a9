package control

import (
	"testing"

	"repro/internal/placement"
)

// rollWithSites feeds one request per listed site (at server 0) and
// closes the window — one "round" of traffic shape for churn tests.
func rollWithSites(t *testing.T, e *Estimator, sites ...int) {
	t.Helper()
	for _, j := range sites {
		e.Observe(0, j)
	}
	e.Roll()
}

func TestChurnColdStartReportsZero(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 2, Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < DefaultChurnWindow; r++ {
		rollWithSites(t, e, 0, 1, 2, 3)
		st := e.SiteChurn()
		if st.Rate != 0 || st.Births != 0 || st.Deaths != 0 {
			t.Fatalf("roll %d (cold start): churn %+v, want zeros", r+1, st)
		}
		if e.SiteAges() != nil {
			t.Fatalf("roll %d (cold start): SiteAges non-nil", r+1)
		}
	}
}

func TestChurnBirthsAndDeaths(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 2, Sites: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Sites 0-2 active from the start; enough history to exit cold start.
	for r := 0; r < DefaultChurnWindow+2; r++ {
		rollWithSites(t, e, 0, 1, 2)
	}
	st := e.SiteChurn()
	if st.Active != 3 || st.Births != 0 || st.Deaths != 0 || st.Rate != 0 {
		t.Fatalf("steady state: %+v, want 3 active, zero churn", st)
	}

	// Site 3 is born; site 2 goes quiet.
	for r := 0; r < DefaultChurnWindow; r++ {
		rollWithSites(t, e, 0, 1, 3)
	}
	st = e.SiteChurn()
	if st.Births != 1 {
		t.Fatalf("births = %d, want 1 (site 3)", st.Births)
	}
	if st.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1 (site 2, quiet for exactly one window)", st.Deaths)
	}
	if want := 2.0 / 4.0; st.Rate != want {
		t.Fatalf("rate = %v, want %v (2 events over 4 sites ever seen)", st.Rate, want)
	}

	ages := e.SiteAges()
	if ages == nil {
		t.Fatal("SiteAges nil after warm-up")
	}
	if ages[0] != 0 || ages[3] != 0 {
		t.Fatalf("active sites aged: ages = %v", ages)
	}
	if ages[2] != int64(DefaultChurnWindow) {
		t.Fatalf("site 2 age = %d, want %d", ages[2], DefaultChurnWindow)
	}
	if ages[4] != -1 || ages[5] != -1 {
		t.Fatalf("never-seen sites: ages = %v, want -1", ages)
	}

	// Long-dead sites stop counting toward the rate (they are stale
	// placement, not ongoing churn).
	for r := 0; r < 2*DefaultChurnWindow; r++ {
		rollWithSites(t, e, 0, 1, 3)
	}
	st = e.SiteChurn()
	if st.Deaths != 0 || st.Births != 0 {
		t.Fatalf("long-stable traffic still reports churn: %+v", st)
	}
}

func TestStalePlacementFrac(t *testing.T) {
	sc := testScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Placement
	replicated := 0
	firstReplicated := -1
	for j := 0; j < sc.Sys.M(); j++ {
		for i := 0; i < sc.Sys.N(); i++ {
			if p.Has(i, j) {
				replicated++
				if firstReplicated < 0 {
					firstReplicated = j
				}
				break
			}
		}
	}
	if replicated == 0 {
		t.Fatal("hybrid placed nothing")
	}

	// All sites fresh: zero staleness.
	ages := make([]int64, sc.Sys.M())
	if got := stalePlacementFrac(p, ages, DefaultChurnWindow); got != 0 {
		t.Fatalf("all-fresh staleness = %v, want 0", got)
	}
	// One replicated site quiet for a full window.
	ages[firstReplicated] = DefaultChurnWindow
	want := 1.0 / float64(replicated)
	if got := stalePlacementFrac(p, ages, DefaultChurnWindow); got != want {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
	// Never-seen counts as stale too.
	ages[firstReplicated] = -1
	if got := stalePlacementFrac(p, ages, DefaultChurnWindow); got != want {
		t.Fatalf("never-seen staleness = %v, want %v", got, want)
	}
	// No replicas at all: defined as zero.
	none := placement.None(sc.Sys).Placement
	if got := stalePlacementFrac(none, ages, DefaultChurnWindow); got != 0 {
		t.Fatalf("empty placement staleness = %v, want 0", got)
	}
}

// TestChurnKickForcesPlan pins the override: with a high hysteresis bar
// a beneficial plan is skipped, but the same plan applies once the
// demand source reports churn at or above ChurnKick — and the audit
// record says so.
func TestChurnKickForcesPlan(t *testing.T) {
	sc := testScenario(t)

	run := func(kick float64, churnRolls bool) (Outcome, bool) {
		target := NewModelTarget(placement.None(sc.Sys).Placement)
		ctrl := newTestController(t, sc, target, func(c *Config) {
			c.Hysteresis = 0.99 // bar nothing demand-driven can clear
			c.ChurnKick = kick
		})
		e := ctrl.Estimator()
		if churnRolls {
			// Manufacture heavy churn history: rotate the active site set
			// so the estimator sees births and deaths every window.
			for r := 0; r < 4*DefaultChurnWindow; r++ {
				feedExact(e, sc.Sys)
				e.Observe(0, r%sc.Sys.M())
				e.Roll()
			}
			// Shift traffic entirely: half the catalog goes quiet. No
			// fresh feed before the reconcile — feeding every site again
			// would mark the dead half alive and erase the deaths.
			for r := 0; r < DefaultChurnWindow; r++ {
				for i := 0; i < sc.Sys.N(); i++ {
					for j := 0; j < sc.Sys.M()/2; j++ {
						e.ObserveN(i, j, 1000)
					}
				}
				e.Roll()
			}
		} else {
			feedExact(e, sc.Sys)
		}
		rep, err := ctrl.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		recs := ctrl.Audit()
		last := recs[len(recs)-1]
		return rep.Outcome, last.ChurnForced
	}

	// Without churn history the bar holds.
	if out, forced := run(0.05, false); out != OutcomeSkipped || forced {
		t.Fatalf("no churn: outcome %v forced=%v, want skipped/false", out, forced)
	}
	// With churn above the kick threshold the plan is forced through.
	if out, forced := run(0.05, true); out != OutcomeApplied || !forced {
		t.Fatalf("churning: outcome %v forced=%v, want applied/true", out, forced)
	}
	// ChurnKick = 0 disables the override even under churn.
	if out, forced := run(0, true); out != OutcomeSkipped || forced {
		t.Fatalf("kick disabled: outcome %v forced=%v, want skipped/false", out, forced)
	}
}

// TestStatusSurfacesChurn checks /debug/control's new fields end to
// end: a placement pinned to sites that went quiet shows a non-zero
// stale fraction and churn rate in Status.
func TestStatusSurfacesChurn(t *testing.T) {
	sc := testScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	target := NewModelTarget(res.Placement)
	ctrl := newTestController(t, sc, target, nil)
	e := ctrl.Estimator()
	// Traffic everywhere, then everything but site 0 goes quiet.
	for r := 0; r < DefaultChurnWindow+1; r++ {
		feedExact(e, sc.Sys)
		e.Roll()
	}
	for r := 0; r < DefaultChurnWindow; r++ {
		e.ObserveN(0, 0, 1000)
		e.Roll()
	}
	st := ctrl.Status()
	if st.StalePlacementFrac <= 0 {
		t.Fatalf("stale placement frac = %v after mass quiescence, want > 0", st.StalePlacementFrac)
	}
	if st.ChurnRate <= 0 {
		t.Fatalf("churn rate = %v after mass quiescence, want > 0", st.ChurnRate)
	}
}

// TestChurnIdlePrefixIsNotBirths pins the genesis baseline: an
// estimator that rolls while the system idles (cluster booting, load
// not yet started) must not report the whole catalog as newborn once
// traffic begins — the churn clock starts at first observed traffic,
// not at construction.
func TestChurnIdlePrefixIsNotBirths(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 2, Sites: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Idle for several windows before any request arrives.
	for r := 0; r < 3*DefaultChurnWindow; r++ {
		e.Roll()
	}
	// Static traffic starts: no site is ever born or dies after this.
	for r := 0; r < DefaultChurnWindow+2; r++ {
		rollWithSites(t, e, 0, 1, 2, 3)
		if st := e.SiteChurn(); st.Births != 0 || st.Deaths != 0 || st.Rate != 0 {
			t.Fatalf("roll %d after idle prefix: churn %+v, want zeros", r+1, st)
		}
	}
	// The signal still works once real history exists: a site whose
	// first-ever traffic arrives after the genesis window is a birth.
	for r := 0; r < DefaultChurnWindow; r++ {
		rollWithSites(t, e, 0, 1, 2, 3, 4)
	}
	if st := e.SiteChurn(); st.Births != 1 {
		t.Fatalf("births = %d after site 4's first traffic, want 1", st.Births)
	}
}
