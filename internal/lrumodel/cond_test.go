package lrumodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func fourSites() ([]SiteSpec, []float64) {
	specs := []SiteSpec{
		{Objects: 200, Theta: 1.0},
		{Objects: 200, Theta: 1.0},
		{Objects: 200, Theta: 0.8},
		{Objects: 200, Theta: 1.2},
	}
	return specs, []float64{4, 3, 2, 1}
}

func TestHitRatiosCondFullVisibilityMatchesHitRatios(t *testing.T) {
	specs, w := fourSites()
	p := newEq1(t, specs, w, 1, 400, nil)
	all := []bool{true, true, true, true}
	a := p.HitRatios(150)
	b := p.HitRatiosCond(all, 150)
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-12 {
			t.Fatalf("site %d: %v vs %v", j, a[j], b[j])
		}
	}
}

func TestHitRatiosCondInvisibleSitesZero(t *testing.T) {
	specs, w := fourSites()
	p := newEq1(t, specs, w, 1, 400, nil)
	vis := []bool{true, false, true, false}
	h := p.HitRatiosCond(vis, 150)
	if h[1] != 0 || h[3] != 0 {
		t.Fatalf("invisible sites have hit ratios %v", h)
	}
	if h[0] == 0 || h[2] == 0 {
		t.Fatal("visible sites have zero hit ratios")
	}
}

func TestRenormalizationRaisesHitRatio(t *testing.T) {
	// Removing a site's traffic from the cache makes every remaining
	// site effectively more popular at the same cache size, so its hit
	// ratio must not drop.
	specs, w := fourSites()
	p := newEq1(t, specs, w, 1, 400, nil)
	full := p.HitRatiosCond([]bool{true, true, true, true}, 150)
	part := p.HitRatiosCond([]bool{true, false, true, true}, 150)
	for _, j := range []int{0, 2, 3} {
		if part[j] < full[j]-1e-9 {
			t.Fatalf("site %d hit ratio dropped after renormalization: %v -> %v",
				j, full[j], part[j])
		}
	}
}

func TestSiteHitRatioCondBounds(t *testing.T) {
	specs, w := fourSites()
	p := newEq1(t, specs, w, 1, 400, nil)
	if got := p.SiteHitRatioCond(0, 0, 150); got != 0 {
		t.Fatalf("zero visible mass gave %v", got)
	}
	if got := p.SiteHitRatioCond(0, -1, 150); got != 0 {
		t.Fatalf("negative visible mass gave %v", got)
	}
	// Mass smaller than p_j clamps pEff to 1 instead of exploding.
	small := p.SitePopularity(0) / 2
	if got := p.SiteHitRatioCond(0, small, 150); got < 0 || got > 1 {
		t.Fatalf("clamped hit ratio %v out of [0,1]", got)
	}
}

func TestHitRatiosCondAllInvisible(t *testing.T) {
	specs, w := fourSites()
	p := newEq1(t, specs, w, 1, 400, nil)
	h := p.HitRatiosCond([]bool{false, false, false, false}, 150)
	for j, v := range h {
		if v != 0 {
			t.Fatalf("site %d: %v with nothing visible", j, v)
		}
	}
}

func TestHitRatiosCondPanicsOnLengthMismatch(t *testing.T) {
	specs, w := fourSites()
	p := newEq1(t, specs, w, 1, 400, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	p.HitRatiosCond([]bool{true}, 150)
}

// TestCondMatchesSimulationWithBypassingTraffic is the scenario the
// hybrid algorithm relies on: one site's traffic bypasses the cache (as
// if replicated) and the model predicts the remaining sites' hit ratios
// with renormalized popularity.
func TestCondMatchesSimulationWithBypassingTraffic(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 400, Theta: 1.0},
		{Objects: 400, Theta: 1.0},
		{Objects: 400, Theta: 1.0},
	}
	weights := []float64{5, 3, 2}
	const slots = 150
	p := newEq1(t, specs, weights, 1, slots, nil)

	// Simulate: site 0 is "replicated" — its requests never touch the
	// cache; sites 1 and 2 share the cache.
	actual := simulateLRUHitRatio(specs[1:], weights[1:], slots, 1000000, xrand.New(5))
	vis := []bool{false, true, true}
	pred := p.HitRatiosCond(vis, slots)
	for idx, j := range []int{1, 2} {
		if math.Abs(pred[j]-actual[idx]) > 0.07 {
			t.Errorf("site %d: predicted %.4f vs simulated %.4f", j, pred[j], actual[idx])
		}
	}
}

// TestHitRatioMonotonePastRequestedCatalog: a server that never requests
// some sites has fewer requested objects than the catalog. A cache
// larger than the requested objects must not predict a lower hit ratio
// than a smaller one — p_B stays at the full mass past the last
// requested object instead of dropping to 0.
func TestHitRatioMonotonePastRequestedCatalog(t *testing.T) {
	specs, w := fourSites()
	w[2], w[3] = 0, 0 // 400 requested objects of 800
	p := newEq1(t, specs, w, 1, 800, nil)
	if got := p.TopMass(500); got != p.TopMass(400) {
		t.Fatalf("p_B past the requested objects = %v, want the full mass %v", got, p.TopMass(400))
	}
	prev := 0.0
	for c := int64(300); c <= 800; c += 20 {
		h := p.SiteHitRatioCond(1, 1, c)
		if h < prev {
			t.Fatalf("hit ratio fell from %v to %v when the cache grew to %d", prev, h, c)
		}
		prev = h
	}
}

// TestHitRatioPropertyBounds fuzzes the model surface: any combination of
// visibility, cache size and weights must produce hit ratios in [0,1],
// monotone in cache size.
func TestHitRatioPropertyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := 2 + r.Intn(5)
		specs := make([]SiteSpec, m)
		weights := make([]float64, m)
		vis := make([]bool, m)
		for j := range specs {
			specs[j] = SiteSpec{
				Objects: 20 + r.Intn(200),
				Theta:   r.Float64() * 1.5,
				Lambda:  r.Float64() * 0.5,
			}
			weights[j] = r.Float64() + 0.01
			vis[j] = r.Intn(3) > 0
		}
		total := 0
		for _, s := range specs {
			total += s.Objects
		}
		p := newEq1(t, specs, weights, 1, int64(total), nil)
		prev := make([]float64, m)
		for _, c := range []int64{0, int64(total / 10), int64(total / 3), int64(total)} {
			h := p.HitRatiosCond(vis, c)
			for j := range h {
				if h[j] < 0 || h[j] > 1 {
					return false
				}
				if h[j] < prev[j]-1e-9 {
					return false // must grow with cache size
				}
				prev[j] = h[j]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
