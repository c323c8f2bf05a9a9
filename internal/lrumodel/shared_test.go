package lrumodel

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// TestSharedTableBitIdentical pins the cross-predictor table to the
// private-memo path: every hit ratio a shared predictor returns must be
// bitwise equal to an unshared predictor's, regardless of which
// predictor populated the table first.
func TestSharedTableBitIdentical(t *testing.T) {
	r := xrand.New(7)
	specs := []SiteSpec{
		{Objects: 120, Theta: 0.7, Lambda: 0.1},
		{Objects: 80, Theta: 0.7},
		{Objects: 200, Theta: 0.9, Lambda: 0.3},
		{Objects: 120, Theta: 0.7}, // same shape as site 0, different λ
	}
	shared := NewSharedTable()
	for server := 0; server < 6; server++ {
		w := make([]float64, len(specs))
		for j := range w {
			w[j] = r.Float64() + 0.01
		}
		plain := newEq1(t, specs, w, 1, 150, nil)
		with := newEq1(t, specs, w, 1, 150, shared)
		for _, cache := range []int64{0, 10, 40, 150} {
			for j := range specs {
				for _, mass := range []float64{1, 0.8, 0.5} {
					a := plain.SiteHitRatioCond(j, mass, cache)
					b := with.SiteHitRatioCond(j, mass, cache)
					if a != b {
						t.Fatalf("server %d site %d cache %d mass %v: plain %v shared %v",
							server, j, cache, mass, a, b)
					}
				}
			}
		}
	}
	if shared.Len() == 0 {
		t.Fatal("shared table stayed empty")
	}
}

// TestSharedTableConcurrent exercises the table from parallel predictors
// (the placement engines query per-server predictors from worker
// goroutines); run with -race.
func TestSharedTableConcurrent(t *testing.T) {
	specs, _ := singleSite(300, 0.8, 0)
	shared := NewSharedTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := New(ModelConfig{Specs: specs, Weights: []float64{1},
				AvgObjectBytes: 1, MaxCacheBytes: 200, Shared: shared})
			if err != nil {
				t.Error(err)
				return
			}
			for c := int64(1); c <= 200; c++ {
				p.SiteHitRatioCond(0, 1-float64(g)*0.05, c)
			}
		}(g)
	}
	wg.Wait()
	ref := newEq1(t, specs, []float64{1}, 1, 200, nil)
	p := newEq1(t, specs, []float64{1}, 1, 200, shared)
	for c := int64(1); c <= 200; c++ {
		if a, b := ref.SiteHitRatio(0, c), p.SiteHitRatio(0, c); a != b {
			t.Fatalf("cache %d: plain %v shared %v", c, a, b)
		}
	}
}

// paperCatalog is the §5.1 catalog's shape as the model sees it — M = 20
// sites of 2000 objects — with a θ per site so that no two sites share a
// Zipf table by accident.
func paperCatalog() ([]SiteSpec, []float64) {
	specs := make([]SiteSpec, 20)
	weights := make([]float64, len(specs))
	for j := range specs {
		specs[j] = SiteSpec{Objects: 2000, Theta: 0.8 + 0.02*float64(j)}
		weights[j] = float64(1 + j%5)
	}
	return specs, weights
}

// TestSharedTableInternsZipfs: N predictors over one M-site catalog and
// one table hold the same M distributions — stats.NewZipfRange ran M
// times, not N·M — and sites of one shape hold the same one. Without a
// table every predictor builds its own.
func TestSharedTableInternsZipfs(t *testing.T) {
	specs, weights := paperCatalog()
	specs = append(specs, specs[3]) // a second site of site 3's shape
	weights = append(weights, 1)
	const n = 50
	shared := NewSharedTable()
	preds := make([]*Predictor, n)
	for i := range preds {
		preds[i] = newEq1(t, specs, weights, 1, 4000, shared)
	}
	if got, want := len(shared.zipfs), len(specs)-1; got != want {
		t.Fatalf("table holds %d distributions for %d distinct shapes", got, want)
	}
	for i, p := range preds {
		for j := range specs {
			if p.zipfs[j] != preds[0].zipfs[j] {
				t.Fatalf("predictor %d built its own distribution for site %d", i, j)
			}
		}
	}
	if preds[0].zipfs[3] != preds[0].zipfs[len(specs)-1] {
		t.Fatal("two sites of one shape hold different distributions")
	}
	if z := preds[0].zipfs[5]; z.L != 2000 || z.Start != 1 || z.Theta != specs[5].Theta {
		t.Fatalf("site 5 holds a distribution of shape (%d, %d, %v)", z.Start, z.L, z.Theta)
	}
	a, b := newEq1(t, specs, weights, 1, 4000, nil), newEq1(t, specs, weights, 1, 4000, nil)
	if a.zipfs[0] == b.zipfs[0] {
		t.Fatal("predictors without a table share a distribution")
	}
}

// BenchmarkZipfIntern times the N = 50 predictor constructions of a cold
// paper-scale solve, with the shared table every engine threads through
// (M Zipf tables built) and without (N·M built).
func BenchmarkZipfIntern(b *testing.B) {
	specs, weights := paperCatalog()
	for _, c := range []struct {
		name   string
		shared func() *SharedTable
	}{
		{"shared", NewSharedTable},
		{"private", func() *SharedTable { return nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				shared := c.shared()
				for server := 0; server < 50; server++ {
					newEq1(b, specs, weights, 1, 4000, shared)
				}
			}
		})
	}
}

// TestSiteHitRatiosCondMatchesSingle pins the batch path to the calls it
// replaces: under every model kind, with and without uncacheable
// traffic, at positive and non-positive visible masses and at cache
// sizes from empty to everything-fits, a batch fanned out over
// goroutines stores the values the one-by-one SiteHitRatioCond returns,
// bit for bit, and leaves equal private memos and shared tables behind.
// Sites 0–2 share one shape and weight, so they share a grid point: the
// batch evaluates it once, and the shared table's Misses stay the count
// of distinct grid points evaluated. Run it under -race.
func TestSiteHitRatiosCondMatchesSingle(t *testing.T) {
	fan := func(n int, f func(x int)) {
		var wg sync.WaitGroup
		wg.Add(n)
		for x := 0; x < n; x++ {
			go func(x int) {
				defer wg.Done()
				f(x)
			}(x)
		}
		wg.Wait()
	}
	for _, kind := range ModelKinds() {
		for _, lambda := range []float64{0, 0.3} {
			specs := []SiteSpec{
				{Objects: 150, Theta: 0.8, Lambda: lambda},
				{Objects: 150, Theta: 0.8, Lambda: lambda},
				{Objects: 150, Theta: 0.8},
				{Objects: 90, Theta: 1.1, Lambda: lambda},
				{Objects: 300, Theta: 0.6, RankOffset: 40},
			}
			weights := []float64{1, 1, 1, 2, 3}
			build := func() *Predictor {
				p, err := New(ModelConfig{Kind: kind, Specs: specs, Weights: weights,
					AvgObjectBytes: 1, MaxCacheBytes: 1000, Shared: NewSharedTable()})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			batch, single := build(), build()
			out := make([]float64, len(specs))
			for _, cache := range []int64{0, 3, 60, 250, 1000} {
				for _, q := range []struct {
					sites []int
					mass  float64
				}{
					{[]int{0, 1, 2, 3, 4}, 1},
					{[]int{4, 2, 0, 1}, 0.625},
					{[]int{1, 3}, 0.5},
					{[]int{0, 2}, 0},
					{[]int{3}, -1},
				} {
					for j := range out {
						out[j] = -1
					}
					batch.SiteHitRatiosCond(q.sites, q.mass, cache, out, fan)
					in := map[int]bool{}
					for _, j := range q.sites {
						in[j] = true
						if want := single.SiteHitRatioCond(j, q.mass, cache); math.Float64bits(out[j]) != math.Float64bits(want) {
							t.Fatalf("%s λ=%v cache %d mass %v site %d: batch %v, single %v",
								kind, lambda, cache, q.mass, j, out[j], want)
						}
					}
					for j, v := range out {
						if !in[j] && v != -1 {
							t.Fatalf("%s: batch wrote site %d outside its sites", kind, j)
						}
					}
				}
			}
			if !reflect.DeepEqual(batch.hmemo, single.hmemo) {
				t.Fatalf("%s λ=%v: private memos differ (%d vs %d entries)", kind, lambda, len(batch.hmemo), len(single.hmemo))
			}
			if !reflect.DeepEqual(batch.shared.m, single.shared.m) {
				t.Fatalf("%s λ=%v: shared tables differ", kind, lambda)
			}
			bs, ss := batch.shared.Stats(), single.shared.Stats()
			if bs != ss {
				t.Fatalf("%s λ=%v: batch table stats %+v, single %+v", kind, lambda, bs, ss)
			}
			if bs.Misses != int64(bs.Entries) || bs.Hits == 0 {
				t.Fatalf("%s λ=%v: %d misses for %d distinct grid points (%d hits)", kind, lambda, bs.Misses, bs.Entries, bs.Hits)
			}
		}
	}
}
