package lrumodel

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func singleSite(L int, theta, lambda float64) ([]SiteSpec, []float64) {
	return []SiteSpec{{Objects: L, Theta: theta, Lambda: lambda}}, []float64{1}
}

// newEq1 is New for the eq1 kind; a nil shared table gives the
// predictor a private one.
func newEq1(tb testing.TB, specs []SiteSpec, weights []float64, avgObjBytes float64, maxCacheBytes int64, shared *SharedTable) *Predictor {
	tb.Helper()
	p, err := New(ModelConfig{Specs: specs, Weights: weights, AvgObjectBytes: avgObjBytes,
		MaxCacheBytes: maxCacheBytes, Shared: shared})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestKApproxEdgeCases(t *testing.T) {
	if got := kApprox(0, 0.5); got != 0 {
		t.Errorf("K(B=0) = %v, want 0", got)
	}
	if got := kApprox(1, 0.5); got != 1 {
		t.Errorf("K(B=1) = %v, want 1", got)
	}
	if got := kApprox(10, 1); !math.IsInf(got, 1) {
		t.Errorf("K(pB=1) = %v, want +Inf", got)
	}
	// pB=0: every t_i = 1, so K = B.
	if got := kApprox(100, 0); got != 100 {
		t.Errorf("K(pB=0) = %v, want 100", got)
	}
}

func TestKApproxMonotoneInPB(t *testing.T) {
	// Hotter caches hold objects longer: K increases with p_B.
	prev := 0.0
	for _, pB := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95} {
		k := kApprox(200, pB)
		if k <= prev {
			t.Fatalf("K not increasing: K(%v)=%v <= %v", pB, k, prev)
		}
		prev = k
	}
}

func TestKApproxAtLeastB(t *testing.T) {
	// Every t_i >= 1, so K >= B always.
	for _, pB := range []float64{0, 0.3, 0.7, 0.9} {
		for _, B := range []int{2, 10, 100, 1000} {
			if k := kApprox(B, pB); k < float64(B) {
				t.Fatalf("K(B=%d,pB=%v)=%v < B", B, pB, k)
			}
		}
	}
}

func TestPredictorPanics(t *testing.T) {
	specs, w := singleSite(10, 1, 0)
	// Invalid construction input is an error.
	for i, cfg := range []ModelConfig{
		{Specs: specs, Weights: []float64{1, 2}, AvgObjectBytes: 100, MaxCacheBytes: 1000},
		{Specs: specs, Weights: w, AvgObjectBytes: 0, MaxCacheBytes: 1000},
		{Specs: specs, Weights: []float64{-1}, AvgObjectBytes: 100, MaxCacheBytes: 1000},
		{Specs: []SiteSpec{{Objects: 0, Theta: 1}}, Weights: w, AvgObjectBytes: 100, MaxCacheBytes: 1000},
		{Specs: []SiteSpec{{Objects: 5, Theta: 1, Lambda: 2}}, Weights: w, AvgObjectBytes: 100, MaxCacheBytes: 1000},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid input", i)
		}
	}
	// A site index outside the catalog is a programming error: a panic.
	p := newEq1(t, specs, w, 100, 1000, nil)
	defer func() {
		if recover() == nil {
			t.Error("SiteHitRatio of an out-of-range site did not panic")
		}
	}()
	p.SiteHitRatio(3, 100)
}

func TestBConversion(t *testing.T) {
	specs, w := singleSite(100, 1, 0)
	p := newEq1(t, specs, w, 50, 10000, nil)
	if got := p.B(500); got != 10 {
		t.Errorf("B(500) = %d, want 10", got)
	}
	if got := p.B(0); got != 0 {
		t.Errorf("B(0) = %d, want 0", got)
	}
	if got := p.B(-10); got != 0 {
		t.Errorf("B(-10) = %d, want 0", got)
	}
}

func TestTopMassProperties(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 50, Theta: 1},
		{Objects: 50, Theta: 1},
	}
	p := newEq1(t, specs, []float64{3, 1}, 1, 100, nil)
	if got := p.TopMass(0); got != 0 {
		t.Errorf("TopMass(0) = %v", got)
	}
	prev := 0.0
	for b := 1; b <= 100; b++ {
		m := p.TopMass(b)
		if m < prev-1e-12 {
			t.Fatalf("TopMass decreasing at %d", b)
		}
		prev = m
	}
	if got := p.TopMass(100); math.Abs(got-1) > 1e-9 {
		t.Errorf("TopMass(all objects) = %v, want 1", got)
	}
	// The most popular object overall is rank 1 of the 3x hotter site.
	z := stats.NewZipf(50, 1)
	want := 0.75 * z.PMF(1)
	if got := p.TopMass(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("TopMass(1) = %v, want %v", got, want)
	}
}

func TestTopMassMergesSitesByPopularity(t *testing.T) {
	// Site 0 is 9x hotter; its top objects must dominate the prefix.
	specs := []SiteSpec{
		{Objects: 10, Theta: 1},
		{Objects: 10, Theta: 1},
	}
	p := newEq1(t, specs, []float64{9, 1}, 1, 20, nil)
	z := stats.NewZipf(10, 1)
	// First two merged entries: site0 rank1 (0.9*pmf1), then the larger
	// of site0 rank2 (0.9*pmf2) and site1 rank1 (0.1*pmf1).
	want2 := 0.9*z.PMF(1) + math.Max(0.9*z.PMF(2), 0.1*z.PMF(1))
	if got := p.TopMass(2); math.Abs(got-want2) > 1e-12 {
		t.Errorf("TopMass(2) = %v, want %v", got, want2)
	}
}

func TestHitRatioBounds(t *testing.T) {
	specs, w := singleSite(200, 1.0, 0)
	p := newEq1(t, specs, w, 1, 200, nil)
	for _, c := range []int64{0, 1, 10, 50, 100, 150, 199} {
		h := p.SiteHitRatio(0, c)
		if h < 0 || h > 1 {
			t.Fatalf("hit ratio %v out of [0,1] at cache %d", h, c)
		}
	}
	if h := p.SiteHitRatio(0, 0); h != 0 {
		t.Fatalf("hit ratio %v with no cache, want 0", h)
	}
}

func TestHitRatioMonotoneInCacheSize(t *testing.T) {
	specs, w := singleSite(500, 1.0, 0)
	p := newEq1(t, specs, w, 1, 500, nil)
	prev := -1.0
	for c := int64(0); c <= 450; c += 50 {
		h := p.SiteHitRatio(0, c)
		if h < prev-1e-9 {
			t.Fatalf("hit ratio decreased at cache %d: %v < %v", c, h, prev)
		}
		prev = h
	}
}

func TestHitRatioFullCacheApproachesOne(t *testing.T) {
	specs, w := singleSite(100, 1.0, 0)
	p := newEq1(t, specs, w, 1, 100, nil)
	// B >= total objects: the cache never evicts, K = +Inf, h = 1.
	if h := p.SiteHitRatio(0, 100); math.Abs(h-1) > 1e-9 {
		t.Fatalf("hit ratio %v with everything cached, want 1", h)
	}
}

func TestLambdaScalesHitRatio(t *testing.T) {
	specsA, w := singleSite(100, 1.0, 0)
	specsB, _ := singleSite(100, 1.0, 0.3)
	a := newEq1(t, specsA, w, 1, 100, nil)
	b := newEq1(t, specsB, w, 1, 100, nil)
	ha := a.SiteHitRatio(0, 50)
	hb := b.SiteHitRatio(0, 50)
	if math.Abs(hb-0.7*ha) > 1e-9 {
		t.Fatalf("lambda adjustment wrong: %v vs 0.7*%v", hb, ha)
	}
}

func TestPopularSiteHasHigherHitRatio(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 100, Theta: 1},
		{Objects: 100, Theta: 1},
	}
	p := newEq1(t, specs, []float64{8, 2}, 1, 200, nil)
	h0 := p.SiteHitRatio(0, 80)
	h1 := p.SiteHitRatio(1, 80)
	if h0 <= h1 {
		t.Fatalf("hot site hit ratio %v <= cold site %v", h0, h1)
	}
}

func TestOverallHitRatioIsWeightedAverage(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 50, Theta: 1},
		{Objects: 50, Theta: 0.7},
	}
	weights := []float64{3, 1}
	p := newEq1(t, specs, weights, 1, 100, nil)
	const c = 40
	want := 0.75*p.SiteHitRatio(0, c) + 0.25*p.SiteHitRatio(1, c)
	if got := p.OverallHitRatio(c); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overall %v, want %v", got, want)
	}
}

func TestSitePopularityNormalized(t *testing.T) {
	specs := []SiteSpec{{Objects: 5, Theta: 1}, {Objects: 5, Theta: 1}}
	p := newEq1(t, specs, []float64{30, 10}, 1, 10, nil)
	if got := p.SitePopularity(0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("pop(0) = %v, want 0.75", got)
	}
	if got := p.SitePopularity(1); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("pop(1) = %v, want 0.25", got)
	}
}

func TestHitRatiosConsistentWithSiteHitRatio(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 50, Theta: 1, Lambda: 0.1},
		{Objects: 80, Theta: 0.8},
		{Objects: 30, Theta: 1.2},
	}
	p := newEq1(t, specs, []float64{5, 3, 2}, 1, 120, nil)
	all := p.HitRatios(60)
	for j := range specs {
		if got := p.SiteHitRatio(j, 60); math.Abs(got-all[j]) > 1e-12 {
			t.Fatalf("site %d: HitRatios %v vs SiteHitRatio %v", j, all[j], got)
		}
	}
}

// simulateLRUHitRatio drives a real LRU cache with an IRM request stream
// over unit-size objects and returns per-site hit ratios. This is the
// ground truth the analytical model approximates.
func simulateLRUHitRatio(specs []SiteSpec, weights []float64, slots int, requests int, r *xrand.Source) []float64 {
	c := cache.NewLRU(int64(slots))
	zipfs := make([]*stats.Zipf, len(specs))
	for j, s := range specs {
		zipfs[j] = stats.NewZipf(s.Objects, s.Theta)
	}
	// Site-choice CDF.
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cdf := make([]float64, len(weights))
	cum := 0.0
	for j, w := range weights {
		cum += w / total
		cdf[j] = cum
	}
	hits := make([]float64, len(specs))
	counts := make([]float64, len(specs))
	warmup := requests / 5
	for i := 0; i < requests; i++ {
		u := r.Float64()
		site := 0
		for site < len(cdf)-1 && u > cdf[site] {
			site++
		}
		obj := zipfs[site].Sample(r)
		key := cache.Key{Site: site, Object: obj}
		hit := c.Get(key)
		if !hit {
			c.Put(key, 1)
		}
		if i >= warmup {
			counts[site]++
			if hit {
				hits[site]++
			}
		}
	}
	out := make([]float64, len(specs))
	for j := range out {
		if counts[j] > 0 {
			out[j] = hits[j] / counts[j]
		}
	}
	return out
}

// TestModelMatchesSimulationSingleSite is the paper's core validation
// claim (§3.2, Figure 6): the analytical hit ratio tracks a trace-driven
// LRU simulation closely. The paper reports <7% overall error; we allow a
// slightly looser bound per configuration because our runs are shorter.
func TestModelMatchesSimulationSingleSite(t *testing.T) {
	for _, tc := range []struct {
		L     int
		theta float64
		slots int
	}{
		{500, 1.0, 50},
		{500, 1.0, 100},
		{500, 0.8, 100},
		{1000, 1.2, 150},
		{300, 1.0, 200},
	} {
		specs, w := singleSite(tc.L, tc.theta, 0)
		p := newEq1(t, specs, w, 1, int64(tc.slots), nil)
		predicted := p.SiteHitRatio(0, int64(tc.slots))
		actual := simulateLRUHitRatio(specs, w, tc.slots, 600000, xrand.New(42))[0]
		if math.Abs(predicted-actual) > 0.05 {
			t.Errorf("L=%d theta=%v B=%d: predicted %.4f vs simulated %.4f",
				tc.L, tc.theta, tc.slots, predicted, actual)
		}
	}
}

// TestModelMatchesSimulationMultiSite validates the multi-site case the
// hybrid algorithm relies on: several sites of different popularity
// sharing one cache.
func TestModelMatchesSimulationMultiSite(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 400, Theta: 1.0},
		{Objects: 400, Theta: 1.0},
		{Objects: 400, Theta: 1.0},
		{Objects: 400, Theta: 1.0},
	}
	weights := []float64{8, 4, 2, 1}
	const slots = 200
	p := newEq1(t, specs, weights, 1, slots, nil)
	actual := simulateLRUHitRatio(specs, weights, slots, 1200000, xrand.New(7))
	for j := range specs {
		predicted := p.SiteHitRatio(j, slots)
		if math.Abs(predicted-actual[j]) > 0.07 {
			t.Errorf("site %d: predicted %.4f vs simulated %.4f", j, predicted, actual[j])
		}
	}
	// Overall weighted error should be well under the paper's 7%.
	var predOverall, actOverall, wsum float64
	for j, w := range weights {
		predOverall += w * p.SiteHitRatio(j, slots)
		actOverall += w * actual[j]
		wsum += w
	}
	predOverall /= wsum
	actOverall /= wsum
	if math.Abs(predOverall-actOverall) > 0.05 {
		t.Errorf("overall: predicted %.4f vs simulated %.4f", predOverall, actOverall)
	}
}

func TestMemoizationConsistency(t *testing.T) {
	specs, w := singleSite(300, 1.0, 0)
	p := newEq1(t, specs, w, 1, 300, nil)
	a := p.SiteHitRatio(0, 100)
	b := p.SiteHitRatio(0, 100)
	if a != b {
		t.Fatalf("memoized result differs: %v vs %v", a, b)
	}
	// A fresh predictor must agree with the memoized one.
	q := newEq1(t, specs, w, 1, 300, nil)
	if c := q.SiteHitRatio(0, 100); c != a {
		t.Fatalf("fresh predictor differs: %v vs %v", c, a)
	}
}

func TestKForBMemoized(t *testing.T) {
	specs, w := singleSite(1000, 1.0, 0)
	p := newEq1(t, specs, w, 1, 800, nil)
	k1 := p.KForB(400)
	k2 := p.KForB(400)
	if k1 != k2 {
		t.Fatal("KForB not stable")
	}
	if k1 < 400 {
		t.Fatalf("K=%v < B=400", k1)
	}
}

func TestZeroWeightSite(t *testing.T) {
	specs := []SiteSpec{
		{Objects: 100, Theta: 1},
		{Objects: 100, Theta: 1},
	}
	p := newEq1(t, specs, []float64{1, 0}, 1, 100, nil)
	if h := p.SiteHitRatio(1, 50); h != 0 {
		t.Fatalf("zero-weight site hit ratio %v, want 0", h)
	}
}

func BenchmarkSiteHitRatioMemoized(b *testing.B) {
	specs := make([]SiteSpec, 20)
	weights := make([]float64, 20)
	for j := range specs {
		specs[j] = SiteSpec{Objects: 500, Theta: 1.0}
		weights[j] = float64(1 + j%5)
	}
	p := newEq1(b, specs, weights, 1, 2000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SiteHitRatio(i%20, int64(500+(i%4)*250))
	}
}

// BenchmarkNew times building one predictor: L=500,M=20 is a small
// catalog; L=2000 at M = 20 and 40 are the §5.1 site and its catalog at
// ×1 and ×2, with a cache of 5 % of the objects, where the frozen
// popularity prefix's k-way merge is most of the build. The weights are
// demand rows: distinct, so the merge's order is not a few runs of
// ties, and one of 32 rows per build, so that the merge's branches are
// not the same ones every iteration.
func BenchmarkNew(b *testing.B) {
	for _, c := range []struct{ L, M, B int }{{500, 20, 2000}, {2000, 20, 2000}, {2000, 40, 4000}} {
		b.Run(fmt.Sprintf("L=%d,M=%d", c.L, c.M), func(b *testing.B) {
			r := xrand.New(1)
			specs := make([]SiteSpec, c.M)
			for j := range specs {
				specs[j] = SiteSpec{Objects: c.L, Theta: 1.0}
			}
			rows := make([][]float64, 32)
			for x := range rows {
				rows[x] = make([]float64, c.M)
				for j := range rows[x] {
					rows[x][j] = 0.5 + r.Float64()
				}
			}
			shared := NewSharedTable() // interns the Zipf tables once, as a placement run does
			newEq1(b, specs, rows[0], 1, int64(c.B), shared)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				newEq1(b, specs, rows[i%len(rows)], 1, int64(c.B), shared)
			}
		})
	}
}

// TestPrefixMatchesSortedSum holds the loser-tree prefix to its
// definition: every (site, rank) popularity p_j·q_k sorted descending,
// then summed in that order, bit for bit — with zero-weight sites (whose
// objects never enter the merge), site counts that are not a power of
// two, unequal catalogs, and a cache larger than the whole catalog
// (the prefix then holds the full mass past the last positive object).
func TestPrefixMatchesSortedSum(t *testing.T) {
	r := xrand.New(7)
	for _, M := range []int{1, 2, 3, 5, 8, 13, 20, 33} {
		for _, zeros := range []bool{false, true} {
			specs := make([]SiteSpec, M)
			weights := make([]float64, M)
			total := 0
			for j := range specs {
				specs[j] = SiteSpec{Objects: 1 + r.Intn(300), Theta: []float64{0, 0.8, 1, 1.4}[r.Intn(4)], RankOffset: r.Intn(3) * 10}
				weights[j] = 0.1 + r.Float64()
				if zeros && j%3 == 1 {
					weights[j] = 0
				}
				total += specs[j].Objects
			}
			for _, B := range []int{1, total / 7, total, total + 50} {
				p := newEq1(t, specs, weights, 1, int64(B), nil)
				var vals []float64
				for j := range specs {
					if p.pops[j] > 0 {
						for _, q := range p.zipfs[j].PMFs() {
							vals = append(vals, p.pops[j]*q)
						}
					}
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
				cum := 0.0
				for i := 1; i < len(p.prefix); i++ {
					if i <= len(vals) {
						cum += vals[i-1]
					}
					if math.Float64bits(p.prefix[i]) != math.Float64bits(cum) {
						t.Fatalf("M=%d zeros=%v B=%d: prefix[%d] = %v, sorted sum %v", M, zeros, B, i, p.prefix[i], cum)
					}
				}
				if want := min(B, total) + 1; len(p.prefix) != want {
					t.Fatalf("M=%d B=%d: %d prefix entries, want %d", M, B, len(p.prefix), want)
				}
			}
		}
	}
}
