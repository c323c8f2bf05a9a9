package lrumodel

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// newChe is New for the che kind over unit-size objects.
func newChe(tb testing.TB, specs []SiteSpec, weights []float64, maxCacheBytes int64) *Predictor {
	tb.Helper()
	p, err := New(ModelConfig{Kind: ModelChe, Specs: specs, Weights: weights,
		AvgObjectBytes: 1, MaxCacheBytes: maxCacheBytes})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestCheKEdgeCases(t *testing.T) {
	specs, w := singleSite(100, 1.0, 0)
	p := newChe(t, specs, w, 100)
	if got := p.CheK(0); got != 0 {
		t.Fatalf("CheK(0) = %v", got)
	}
	if got := p.CheK(100); !math.IsInf(got, 1) {
		t.Fatalf("CheK(all objects) = %v, want +Inf", got)
	}
}

func TestCheKMonotoneInB(t *testing.T) {
	specs, w := singleSite(500, 1.0, 0)
	p := newChe(t, specs, w, 500)
	prev := 0.0
	for _, b := range []int{10, 50, 100, 200, 400} {
		k := p.CheK(b)
		if k <= prev {
			t.Fatalf("CheK not increasing at B=%d: %v <= %v", b, k, prev)
		}
		prev = k
	}
}

func TestCheOccupancyFixedPoint(t *testing.T) {
	// At the solved characteristic time, the expected occupancy equals
	// B (that is the defining equation).
	specs, w := singleSite(400, 1.0, 0)
	p := newChe(t, specs, w, 400)
	const B = 120
	T := p.CheK(B)
	z := p.zipfs[0]
	occ := 0.0
	for k := 1; k <= z.L; k++ {
		occ += 1 - math.Pow(1-z.PMF(k), T)
	}
	if math.Abs(occ-B) > 0.1 {
		t.Fatalf("occupancy at T_C is %v, want %d", occ, B)
	}
}

func TestCheHitRatioBounds(t *testing.T) {
	specs, w := singleSite(300, 1.0, 0.1)
	p := newChe(t, specs, w, 300)
	prev := -1.0
	for _, c := range []int64{0, 30, 90, 200, 299} {
		h := p.SiteHitRatio(0, c)
		if h < 0 || h > 1 {
			t.Fatalf("Che hit ratio %v out of range", h)
		}
		if h < prev-1e-9 {
			t.Fatalf("Che hit ratio decreased at %d", c)
		}
		prev = h
	}
}

// TestCheMatchesSimulation: Che's approximation is known to be extremely
// accurate under IRM; hold it to a tighter tolerance than the paper's
// model.
func TestCheMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		L     int
		theta float64
		slots int
	}{
		{500, 1.0, 50},
		{500, 1.0, 200},
		{1000, 0.8, 150},
	} {
		specs, w := singleSite(tc.L, tc.theta, 0)
		p := newChe(t, specs, w, int64(tc.slots))
		predicted := p.SiteHitRatio(0, int64(tc.slots))
		actual := simulateLRUHitRatio(specs, w, tc.slots, 600000, xrand.New(11))[0]
		if math.Abs(predicted-actual) > 0.02 {
			t.Errorf("L=%d θ=%v B=%d: Che %.4f vs sim %.4f",
				tc.L, tc.theta, tc.slots, predicted, actual)
		}
	}
}

// TestPaperModelConservativeVsChe documents the structural relationship:
// the paper's K (Equation 2) underestimates the characteristic time, so
// its hit ratios sit at or below Che's.
func TestPaperModelConservativeVsChe(t *testing.T) {
	specs, w := singleSite(800, 1.0, 0)
	p, pc := newEq1(t, specs, w, 1, 800, nil), newChe(t, specs, w, 800)
	for _, c := range []int64{50, 100, 200, 400} {
		paper := p.SiteHitRatio(0, c)
		che := pc.SiteHitRatio(0, c)
		if paper > che+0.01 {
			t.Errorf("cache %d: paper model %.4f above Che %.4f", c, paper, che)
		}
	}
}

func TestCheOverallIsWeightedAverage(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 100, Theta: 1.0},
		{Objects: 100, Theta: 1.0},
	}
	p := newChe(t, specs, []float64{3, 1}, 200)
	const c = 60
	want := 0.75*p.SiteHitRatio(0, c) + 0.25*p.SiteHitRatio(1, c)
	if got := p.OverallHitRatio(c); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overall %v, want %v", got, want)
	}
}
