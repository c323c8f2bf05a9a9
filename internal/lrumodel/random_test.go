package lrumodel

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestRandomTEdgeCases(t *testing.T) {
	specs, w := singleSite(200, 1.0, 0)
	p := newEq1(t, specs, w, 1, 200, nil)
	if got := p.randomT(0); got != 0 {
		t.Fatalf("randomT(0) = %v", got)
	}
	if got := p.randomT(200); !math.IsInf(got, 1) {
		t.Fatalf("randomT(all objects) = %v, want +Inf", got)
	}
	if got := p.randomT(500); !math.IsInf(got, 1) {
		t.Fatalf("randomT(beyond catalog) = %v, want +Inf", got)
	}
}

func TestRandomTMonotoneInB(t *testing.T) {
	specs, w := singleSite(500, 1.0, 0)
	p := newEq1(t, specs, w, 1, 500, nil)
	prev := 0.0
	for _, b := range []int{10, 50, 100, 200, 400} {
		T := p.randomT(b)
		if T <= prev {
			t.Fatalf("randomT not increasing at B=%d: %v <= %v", b, T, prev)
		}
		prev = T
	}
}

func TestRandomOccupancyFixedPoint(t *testing.T) {
	// At the solved characteristic time the expected occupancy
	// Σ q·T/(1+q·T) equals B — that is the defining equation.
	specs, w := singleSite(400, 1.0, 0)
	p := newEq1(t, specs, w, 1, 400, nil)
	const B = 120
	T := p.randomT(B)
	z := p.zipfs[0]
	occ := 0.0
	for k := 1; k <= z.L; k++ {
		q := z.PMF(k)
		occ += q * T / (1 + q*T)
	}
	if math.Abs(occ-B) > 0.1 {
		t.Fatalf("occupancy at T is %v, want %d", occ, B)
	}
}

func TestRandomZeroWeightSiteExcluded(t *testing.T) {
	// A site nobody requests holds no cache space: T must solve the
	// occupancy over the requested population only, so covering it
	// saturates at the requested site's catalog.
	specs := []SiteSpec{
		{Objects: 100, Theta: 1.0},
		{Objects: 100, Theta: 1.0},
	}
	p := newEq1(t, specs, []float64{1, 0}, 1, 200, nil)
	if got := p.randomT(100); !math.IsInf(got, 1) {
		t.Fatalf("randomT(100) with one dead site = %v, want +Inf", got)
	}
}

// TestRandomModelMatchesSimulatedCaches validates the q·T/(1+q·T) model
// against trace-driven runs of both cache variants it covers: under
// IRM, RANDOM and FIFO replacement share the same steady-state hit
// ratio (Gelenbe 1973), so one analytical column must track both
// simulated policies.
func TestRandomModelMatchesSimulatedCaches(t *testing.T) {
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
		m, err := New(ModelConfig{Kind: ModelRandom, Specs: specs, Weights: w,
			AvgObjectBytes: 1, MaxCacheBytes: int64(tc.L)})
		if err != nil {
			t.Fatal(err)
		}
		predicted := m.SiteHitRatio(0, int64(tc.slots))
		for _, policy := range []cache.Policy{cache.PolicyRandom, cache.PolicyFIFO} {
			actual := simulatePolicyHitRatio(policy, specs, w, tc.slots, 600000, xrand.New(11))
			if math.Abs(predicted-actual) > 0.03 {
				t.Errorf("L=%d θ=%v B=%d %s: model %.4f vs sim %.4f",
					tc.L, tc.theta, tc.slots, policy, predicted, actual)
			}
		}
	}
}

// TestRandomBelowLRUModel documents the policy ordering under skewed
// demand: RANDOM/FIFO cannot beat LRU under IRM with Zipf popularity,
// so the random model's hit ratio sits at or below Che's LRU estimate.
func TestRandomBelowLRUModel(t *testing.T) {
	specs, w := singleSite(800, 1.0, 0)
	rnd, err := New(ModelConfig{Kind: ModelRandom, Specs: specs, Weights: w,
		AvgObjectBytes: 1, MaxCacheBytes: 800})
	if err != nil {
		t.Fatal(err)
	}
	che, err := New(ModelConfig{Kind: ModelChe, Specs: specs, Weights: w,
		AvgObjectBytes: 1, MaxCacheBytes: 800})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int64{50, 100, 200, 400} {
		if r, l := rnd.SiteHitRatio(0, c), che.SiteHitRatio(0, c); r > l+0.01 {
			t.Errorf("cache %d: random model %.4f above Che LRU %.4f", c, r, l)
		}
	}
}

// simulatePolicyHitRatio drives a real cache of the given policy with
// an IRM request stream over unit-size objects and returns the overall
// hit ratio after warm-up — ground truth for the RANDOM/FIFO model.
func simulatePolicyHitRatio(policy cache.Policy, specs []SiteSpec, weights []float64, slots, requests int, r *xrand.Source) float64 {
	c := cache.New(policy, int64(slots))
	zipfs := make([]*stats.Zipf, len(specs))
	for j, s := range specs {
		zipfs[j] = stats.NewZipf(s.Objects, s.Theta)
	}
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
	warmup := requests / 5
	var hits, lookups float64
	for i := 0; i < requests; i++ {
		u := r.Float64()
		site := 0
		for site < len(cdf)-1 && u > cdf[site] {
			site++
		}
		key := cache.Key{Site: site, Object: zipfs[site].Sample(r)}
		hit := c.Get(key)
		if !hit {
			c.Put(key, 1)
		}
		if i >= warmup {
			lookups++
			if hit {
				hits++
			}
		}
	}
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}
