package lrumodel

import (
	"math"
	"testing"
)

// upperTight is the largest overshoot TestSiteHitUpperBound allows the
// Jensen bound at L ≥ 200 (1.24e-3 is the worst seen on its grid): a
// block rule that drifts loose fails here before it makes every seed of
// the placement's cold start surface.
const upperTight = 2e-3

// upperTightFuzz is FuzzSiteHitUpper's looser tolerance. Off the test's
// grid the bound reaches further above the exact value: 1.7e-3 on a
// finer (p, K) scan, and 2.0e-3 at θ = 1.2, L = 258 (corpus entry
// dfac8adc…). The fuzz guards against a loose block rule, and the grid
// guards the tightness the seeds rely on.
const upperTightFuzz = 3e-3

// upperPredictor builds a two-site predictor whose site 0 has the given
// shape and a quarter of the traffic (site 1, the same shape, has the
// rest), with room for every object of both.
func upperPredictor(tb testing.TB, kind ModelKind, L int, theta float64, off int, lambda float64, shared *SharedTable) *Predictor {
	tb.Helper()
	spec := SiteSpec{Objects: L, Theta: theta, Lambda: lambda, RankOffset: off}
	p, err := New(ModelConfig{
		Kind: kind, Specs: []SiteSpec{spec, spec}, Weights: []float64{1, 3},
		AvgObjectBytes: 1, MaxCacheBytes: int64(2 * L), Shared: shared,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// checkUpper holds site 0's bound at one (p, K) point to its contract —
// never below the law's exact value beyond rounding, and, when tol > 0,
// at most tol above it relative to it — and returns the relative
// overshoot.
func checkUpper(tb testing.TB, pr *Predictor, pSite, K, tol float64) float64 {
	tb.Helper()
	exact := pr.law.siteHit(pr, 0, pSite, K)
	var out [1]float64
	pr.law.siteHitUpper(pr, 0, pSite, []float64{K}, out[:])
	upper := out[0]
	z := pr.zipfs[0]
	if !(upper >= exact*(1-1e-14)) {
		tb.Fatalf("%s L=%d θ=%v start=%d p=%v K=%v: upper %v below exact %v", pr.Kind(), z.L, z.Theta, z.Start, pSite, K, upper, exact)
	}
	if tol > 0 && upper > exact*(1+tol) {
		tb.Fatalf("%s L=%d θ=%v start=%d p=%v K=%v: upper %v above exact %v by %.3g relative", pr.Kind(), z.L, z.Theta, z.Start, pSite, K, upper, exact, (upper-exact)/exact)
	}
	if exact == 0 {
		return 0
	}
	return (upper - exact) / exact
}

// tight reports whether the Jensen bound is held to a tightness
// tolerance on a site of L objects and exponent θ. Small catalogs are
// not pinned. Nor are steeper exponents: at θ = 2 the head's blocks hold
// two or three ranks at nearly the full ratio apart, the most spread a
// block can have, and they carry most of the mass (2.2e-3 seen).
func tight(L int, theta float64) bool {
	return L >= 200 && theta <= 1.2
}

// TestSiteHitUpperBound is the contract the placement's seeds rest on:
// SiteHitRatioCondUpper never undercuts SiteHitRatioCond beyond rounding,
// under every model, at every grid point — popularity at the clamp, K
// at 0, inside (0, 1) where the LRU bounds fall back to the exact sum,
// at 1, up to 1e6 and +Inf — and stays within upperTight of it where it
// is a Jensen sum. Through the public method it also reads the λ factor
// and the grid point of SiteHitRatioCond, returns a memoized exact value
// as is, and stores nothing.
func TestSiteHitUpperBound(t *testing.T) {
	ps := []float64{1e-3, 0.01, 0.05, 0.3, 1}
	Ks := []float64{0, 0.4, 1, 5, 37, 1e3, 12345, 1e5, 1e6, math.Inf(1)}
	masses := []float64{1, 0.5, 0.25, 0.1} // pEff 0.25, 0.5, 1, and clamped to 1
	over, under := map[ModelKind]float64{}, map[ModelKind]float64{}
	for _, kind := range ModelKinds() {
		for _, L := range []int{1, 7, 200, 2000, 20000} {
			for _, theta := range []float64{0, 0.6, 1, 1.2} {
				for _, off := range []int{0, 50} {
					for _, lambda := range []float64{0, 0.3} {
						shared := NewSharedTable()
						pr := upperPredictor(t, kind, L, theta, off, lambda, shared)
						if lambda == 0 {
							for _, p := range ps {
								for _, K := range Ks {
									tol := 0.0
									if tight(L, theta) {
										tol = upperTight
									}
									rel := checkUpper(t, pr, p, K, tol)
									under[kind] = math.Min(under[kind], rel)
									if tight(L, theta) {
										over[kind] = math.Max(over[kind], rel)
									}
								}
							}
						}
						for _, c := range []int64{0, 1, 3, int64(L / 2), int64(2 * L)} {
							for _, mass := range masses {
								entries, memo := shared.Len(), len(pr.hmemo)
								upper := pr.SiteHitRatioCondUpper(0, mass, c)
								if shared.Len() != entries || len(pr.hmemo) != memo {
									t.Fatalf("%s L=%d: SiteHitRatioCondUpper stored a hit ratio", kind, L)
								}
								exact := pr.SiteHitRatioCond(0, mass, c)
								if !(upper >= exact*(1-1e-14)) {
									t.Fatalf("%s L=%d θ=%v off=%d λ=%v mass=%v cache=%d: upper %v below exact %v",
										kind, L, theta, off, lambda, mass, c, upper, exact)
								}
								if again := pr.SiteHitRatioCondUpper(0, mass, c); again != exact {
									t.Fatalf("%s L=%d mass=%v cache=%d: memoized exact %v, upper returned %v", kind, L, mass, c, exact, again)
								}
							}
						}
					}
				}
			}
		}
	}
	for _, kind := range ModelKinds() {
		t.Logf("%s: upper/exact − 1 within [%.3g, %.3g]", kind, under[kind], over[kind])
	}
}

// TestZipfBlockCounts pins the block rule's size: ~30 terms where the
// exact sum has L.
func TestZipfBlockCounts(t *testing.T) {
	for _, c := range []struct{ L, want int }{{2000, 29}, {20000, 39}} {
		pr := upperPredictor(t, ModelEq1, c.L, 1, 0, 0, nil)
		if got := len(pr.blocks[0]); got != c.want {
			t.Errorf("L=%d θ=1: %d blocks, want %d", c.L, got, c.want)
		}
	}
	if got := len(upperPredictor(t, ModelEq1, 2000, 0, 0, 0, nil).blocks[0]); got != 1 {
		t.Errorf("uniform site: %d blocks, want 1", got)
	}
}

func FuzzSiteHitUpper(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint16(2000), uint16(0), 0.05, 5000.0)
	f.Add(uint8(1), uint8(3), uint16(200), uint16(50), 1.0, 1.0)
	f.Add(uint8(3), uint8(1), uint16(20000), uint16(0), 1e-3, 1e6)
	f.Add(uint8(2), uint8(0), uint16(7), uint16(500), 0.7, 0.5)
	f.Add(uint8(0), uint8(5), uint16(1), uint16(0), 1.0, 40.0)           // pSite·M_b ≥ 1
	f.Add(uint8(1), uint8(2), uint16(2000), uint16(0), 0.3, math.Inf(1)) // everything fits
	f.Add(uint8(0), uint8(1), uint16(300), uint16(7), 0.02, 0.75)        // K < 1
	f.Fuzz(func(t *testing.T, kindIdx, thetaIdx uint8, L, off uint16, p, K float64) {
		if L < 1 || L > 20000 {
			L = L%20000 + 1
		}
		if !(p >= 1e-6 && p <= 1) || !(K >= 0 && K <= 1e8 || math.IsInf(K, 1)) {
			return // outside the (p, K) range a predictor quantizes to
		}
		kind := ModelKinds()[int(kindIdx)%len(ModelKinds())]
		theta := []float64{0, 0.6, 1, 1.2, 1.4, 2}[thetaIdx%6]
		pr := upperPredictor(t, kind, int(L), theta, int(off%1000), 0, nil)
		tol := 0.0
		if tight(int(L), theta) {
			tol = upperTightFuzz
		}
		checkUpper(t, pr, p, K, tol)
		// The batch over several sizes at this popularity — K itself,
		// smaller and larger, below 1 and +Inf — is each size's bound.
		requireBatchUpper(t, pr, p, []float64{K, K / 3, 3 * K, 0.5, math.Inf(1)})
		// And through the predictor: a memo hit at one size, the bound
		// at the others, a non-positive mass.
		pr.SiteHitRatioCond(0, 0.5, int64(L))
		sizes := []int64{int64(L), int64(L) / 3, 0, 2 * int64(L)}
		out := make([]float64, len(sizes))
		for _, mass := range []float64{0, 0.5, p} {
			pr.SiteHitRatioCondUpperSizes(0, mass, sizes, out)
			for x, c := range sizes {
				if want := condUpperRef(pr, 0, mass, c); math.Float64bits(out[x]) != math.Float64bits(want) {
					t.Fatalf("%s L=%d mass=%v cache=%d: batch %v, one size %v", kind, L, mass, c, out[x], want)
				}
			}
		}
	})
}

// upperOneRef is the one-size Jensen bound as a plain per-size sum —
// the law's bound at (pSite, K) with every block's logarithm taken
// afresh — the reference the batch's shared logarithms are held to.
func upperOneRef(pr *Predictor, j int, pSite, K float64) float64 {
	z := pr.zipfs[j]
	if pr.Kind() == ModelRandom {
		if !(K > 0 && pSite > 0) || math.IsInf(K, 1) {
			return randomSiteHit(pSite, z, K)
		}
		return jensenUpper(pr.blocks[j], z.L, func(q float64) float64 {
			v := pSite * q * K
			return v / (1 + v)
		})
	}
	if !(K >= 1 && pSite > 0) {
		return hitRatioExact(pSite, z, K)
	}
	return jensenUpper(pr.blocks[j], z.L, func(q float64) float64 { return hitProb(pSite*q, K) })
}

// condUpperRef is SiteHitRatioCondUpper one size at a time over
// upperOneRef: the same λ factor, grid point and memo.
func condUpperRef(pr *Predictor, j int, mass float64, cacheBytes int64) float64 {
	if mass <= 0 {
		return 0
	}
	K := pr.K(cacheBytes)
	key := pr.gridKey(j, mass, K)
	if h, ok := pr.hmemo[key]; ok {
		return h * (1 - pr.specs[j].Lambda)
	}
	pSite, kEff := pr.gridPoint(key, K)
	return upperOneRef(pr, j, pSite, kEff) * (1 - pr.specs[j].Lambda)
}

// requireBatchUpper holds the law's batch bound at pSite over ks to
// upperOneRef at each K, bit for bit.
func requireBatchUpper(tb testing.TB, pr *Predictor, pSite float64, ks []float64) {
	tb.Helper()
	out := make([]float64, len(ks))
	pr.law.siteHitUpper(pr, 0, pSite, ks, out)
	for x, K := range ks {
		if want := upperOneRef(pr, 0, pSite, K); math.Float64bits(out[x]) != math.Float64bits(want) {
			tb.Fatalf("%s L=%d p=%v K=%v (of %v): batch bound %v, one-size bound %v", pr.Kind(), pr.zipfs[0].L, pSite, K, ks, out[x], want)
		}
	}
}

// TestSiteHitUpperSizesMatchesOneByOne: the batch bound equals the
// one-size bound at every size, bit for bit, under every law — through
// the law (shared logarithms against a fresh sum per K) and through the
// public method (against the same sum one size at a time, condUpperRef),
// across a non-positive visible mass, a one-object site whose block has
// pSite·M_b ≥ 1, characteristic times below 1, +Inf (everything fits)
// and sizes whose exact value the predictor has memoized.
func TestSiteHitUpperSizesMatchesOneByOne(t *testing.T) {
	ks := []float64{0, 0.4, 1, 5, 37, 12345, 1e6, math.Inf(1), 0.9, 2}
	sizes := []int64{0, 1, 3, 50, 150, 399, 400, 10_000, -5}
	for _, kind := range ModelKinds() {
		for _, L := range []int{1, 7, 200, 2000} {
			for _, theta := range []float64{0, 1, 2} {
				pr := upperPredictor(t, kind, L, theta, 0, 0.3, nil)
				for _, p := range []float64{0, 1e-3, 0.25, 1} {
					requireBatchUpper(t, pr, p, ks)
				}
				// Memoize some sizes' exact values first: the batch must
				// return them as the one-size call does.
				pr.SiteHitRatioCond(0, 0.5, 3)
				pr.SiteHitRatioCond(0, 0.5, 150)
				for _, mass := range []float64{-1, 0, 0.1, 0.5, 1} {
					out := make([]float64, len(sizes))
					for x := range out {
						out[x] = math.NaN() // every entry must be written
					}
					pr.SiteHitRatioCondUpperSizes(0, mass, sizes, out)
					for x, c := range sizes {
						if want := condUpperRef(pr, 0, mass, c); math.Float64bits(out[x]) != math.Float64bits(want) {
							t.Fatalf("%s L=%d θ=%v mass=%v cache=%d: batch %v, one size %v", kind, L, theta, mass, c, out[x], want)
						}
					}
				}
			}
		}
	}
}
