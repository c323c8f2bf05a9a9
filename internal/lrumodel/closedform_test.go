package lrumodel

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestClosedFormKEdgeCases(t *testing.T) {
	if got := closedformK(0, 0.5); got != 0 {
		t.Fatalf("closedformK(0) = %v", got)
	}
	if got := closedformK(1, 0.5); got != 1 {
		t.Fatalf("closedformK(1) = %v, want 1", got)
	}
	if got := closedformK(100, 1.0); !math.IsInf(got, 1) {
		t.Fatalf("closedformK(pB=1) = %v, want +Inf", got)
	}
	if got := closedformK(100, 0); got != 100 {
		t.Fatalf("closedformK(pB=0) = %v, want B", got)
	}
}

// TestClosedFormKMatchesEq2 holds the midpoint-rule integral against
// Equation (2)'s exact sum. The rule's error concentrates near the
// summand's singularity, so the bound loosens as p_B grows; the
// hit-ratio-level agreement (TestClosedFormMatchesEq1) is the bound
// that matters for placement.
func TestClosedFormKMatchesEq2(t *testing.T) {
	for _, tc := range []struct {
		pB  float64
		tol float64
	}{
		{0.05, 0.002},
		{0.2, 0.01},
		{0.5, 0.03},
		{0.9, 0.10},
	} {
		for _, B := range []int{50, 200, 1000, 10000} {
			exact := kApprox(B, tc.pB)
			cf := closedformK(B, tc.pB)
			if math.IsInf(exact, 1) != math.IsInf(cf, 1) {
				t.Fatalf("B=%d pB=%v: exact %v vs closed form %v", B, tc.pB, exact, cf)
			}
			if math.IsInf(exact, 1) {
				continue
			}
			if rel := math.Abs(cf-exact) / exact; rel > tc.tol {
				t.Errorf("B=%d pB=%v: closed-form K %.4f vs exact %.4f (rel %.4f > %v)",
					B, tc.pB, cf, exact, rel, tc.tol)
			}
		}
	}
}

func TestClosedFormKMonotoneInB(t *testing.T) {
	prev := 0.0
	for _, b := range []int{10, 50, 100, 500, 2000} {
		k := closedformK(b, 0.6)
		if k <= prev {
			t.Fatalf("closedformK not increasing at B=%d: %v <= %v", b, k, prev)
		}
		prev = k
	}
}

// TestClosedFormMatchesEq1 is the validity-envelope claim from
// closedform.go: across θ, catalog layouts and cache sizes, the
// quadrature model's overall hit ratio stays within 5e-3 absolute of
// the exact Equation (1)+(2) evaluation — an order of magnitude below
// the paper model's own gap to simulation.
func TestClosedFormMatchesEq1(t *testing.T) {
	layouts := [][]int{
		{2000},
		{1000, 1000, 1000},
		{500, 2000, 500, 1000},
	}
	for _, theta := range []float64{0.6, 0.8, 1.0, 1.2} {
		for _, layout := range layouts {
			specs := make([]SiteSpec, len(layout))
			weights := make([]float64, len(layout))
			total := 0
			for j, L := range layout {
				specs[j] = SiteSpec{Objects: L, Theta: theta}
				weights[j] = float64(uint(1) << uint(len(layout)-1-j))
				total += L
			}
			eq1, err := New(ModelConfig{Kind: ModelEq1, Specs: specs, Weights: weights,
				AvgObjectBytes: 1, MaxCacheBytes: int64(total)})
			if err != nil {
				t.Fatal(err)
			}
			cf, err := New(ModelConfig{Kind: ModelClosedForm, Specs: specs, Weights: weights,
				AvgObjectBytes: 1, MaxCacheBytes: int64(total)})
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4} {
				c := int64(frac * float64(total))
				a, b := eq1.OverallHitRatio(c), cf.OverallHitRatio(c)
				if math.Abs(a-b) > 0.005 {
					t.Errorf("θ=%v layout=%v cache=%d: eq1 %.5f vs closed form %.5f (|Δ|=%.5f)",
						theta, layout, c, a, b, math.Abs(a-b))
				}
			}
		}
	}
}

// TestClosedFormSmallCatalogUsesExactLoop: below closedformExactL the
// law evaluates Equation (1) verbatim, so the only difference from eq1
// is the closed-form K.
func TestClosedFormSmallCatalogUsesExactLoop(t *testing.T) {
	specs, w := singleSite(closedformExactL, 1.0, 0)
	p := newEq1(t, specs, w, 1, int64(closedformExactL), nil)
	z := p.zipfs[0]
	for _, K := range []float64{5, 20, 60} {
		if got, want := closedformHitRatio(1, z, K), hitRatioExact(1, z, K); got != want {
			t.Fatalf("K=%v: %v != exact %v", K, got, want)
		}
	}
}

func TestClosedFormHitRatioEdgeCases(t *testing.T) {
	specs, w := singleSite(500, 1.0, 0)
	p := newEq1(t, specs, w, 1, 500, nil)
	z := p.zipfs[0]
	if got := closedformHitRatio(0.5, z, 0); got != 0 {
		t.Fatalf("K=0: %v, want 0", got)
	}
	if got := closedformHitRatio(0, z, 10); got != 0 {
		t.Fatalf("pSite=0: %v, want 0", got)
	}
	if got := closedformHitRatio(0.5, z, math.Inf(1)); got != 1 {
		t.Fatalf("K=+Inf: %v, want 1", got)
	}
}

func TestClosedFormHitRatioBounds(t *testing.T) {
	specs := []SiteSpec{{Objects: 3000, Theta: 0.9, Lambda: 0.1}}
	m, err := New(ModelConfig{Kind: ModelClosedForm, Specs: specs,
		Weights: []float64{1}, AvgObjectBytes: 1, MaxCacheBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, c := range []int64{0, 50, 200, 1000, 2999} {
		h := m.SiteHitRatio(0, c)
		if h < 0 || h > 1 {
			t.Fatalf("closed-form hit ratio %v out of range at %d", h, c)
		}
		if h < prev-1e-9 {
			t.Fatalf("closed-form hit ratio decreased at %d", c)
		}
		prev = h
	}
}

// TestClosedFormKIsRunningMax pins the law's few-logarithm envelope to
// its definition — the running maximum of the raw closed form over
// every slot count up to B — on small skewed catalogs, where the raw
// form does fall, and checks it agrees with the raw form wherever that
// has not.
func TestClosedFormKIsRunningMax(t *testing.T) {
	r := xrand.New(5)
	dips := 0
	for trial := 0; trial < 400; trial++ {
		m := 1 + r.Intn(6)
		specs := make([]SiteSpec, m)
		w := make([]float64, m)
		total := 0
		for j := range specs {
			specs[j] = SiteSpec{Objects: 1 + r.Intn(80), Theta: 0.2 + 1.6*r.Float64()}
			total += specs[j].Objects
			if r.Intn(3) > 0 {
				w[j] = r.Float64()
			}
		}
		w[0] += 0.01
		mod, err := New(ModelConfig{Kind: ModelClosedForm, Specs: specs, Weights: w,
			AvgObjectBytes: 1, MaxCacheBytes: int64(total)})
		if err != nil {
			t.Fatal(err)
		}
		p := mod.(*Predictor)
		if trial%2 == 1 {
			p.KForB(total - 1) // the state extends in one go; order must not matter
		}
		want := 0.0
		for b := 0; b < total; b++ {
			raw := closedformK(b, p.TopMass(b))
			if raw < want {
				dips++
			}
			want = math.Max(want, raw)
			if got := p.KForB(b); got != want {
				t.Fatalf("trial %d, B=%d: K = %v, want running max %v (raw %v)", trial, b, got, want, raw)
			}
		}
	}
	if dips == 0 {
		t.Fatal("no trial made the raw closed form fall; the test does not reach the corner")
	}
}
