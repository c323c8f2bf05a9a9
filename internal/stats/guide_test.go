package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// checkGuide compares the guided search with sort.SearchFloat64s, the
// oracle it replaced, at every draw where the two could part: 0, each
// CDF value and both its neighbours, each slice edge b/K and both its
// neighbours, the largest float64 below 1, and draws outside [0,1),
// which must take the oracle's answer.
func checkGuide(t *testing.T, name string, cdf []float64, total float64) {
	t.Helper()
	var g Guide
	g.Build(cdf, total)
	check := func(u float64) {
		t.Helper()
		if got, want := g.Search(u), sort.SearchFloat64s(cdf, u*total); got != want {
			t.Fatalf("%s: Search(%v) = %d, sort.SearchFloat64s = %d (K = %v, total = %v)",
				name, u, got, want, g.k, total)
		}
	}
	around := func(u float64) {
		t.Helper()
		check(u)
		check(math.Nextafter(u, math.Inf(-1)))
		check(math.Nextafter(u, math.Inf(1)))
	}
	around(0)
	around(1)
	for _, v := range cdf {
		around(v)
		if total != 0 {
			around(v / total)
		}
	}
	for b := 0.0; b <= g.k; b++ {
		around(b / g.k)
	}
	for _, u := range []float64{math.Copysign(0, -1), -0.5, 1.5, math.Inf(-1), math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, 0x1p-1022, 0.5} {
		check(u)
	}
}

// demandCDF is the flattened server×site CDF exactly as
// workload.NewStream accumulates it.
func demandCDF(demand [][]float64) []float64 {
	var cdf []float64
	cum := 0.0
	for _, row := range demand {
		for _, d := range row {
			cum += d
			cdf = append(cdf, cum)
		}
	}
	cdf[len(cdf)-1] = 1
	return cdf
}

func TestGuideMatchesBinarySearch(t *testing.T) {
	for _, theta := range []float64{0, 0.6, 1, 1.2} {
		for _, L := range []int{1, 2, 3, 7, 2000, 20000} {
			z := NewZipf(L, theta)
			checkGuide(t, fmt.Sprintf("zipf(L=%d, θ=%v)", L, theta), z.cdf, 1)
		}
		// Popularity tails: flat, many entries to a slice.
		for _, start := range []int{2, 501, 15000} {
			z := NewZipfRange(start, 300, theta)
			checkGuide(t, fmt.Sprintf("zipf(start=%d, L=300, θ=%v)", start, theta), z.cdf, 1)
		}
	}
	// A very skewed table: one slice holds thousands of entries.
	checkGuide(t, "zipf(L=20000, θ=4)", NewZipf(20000, 4).cdf, 1)

	checkGuide(t, "one cell", []float64{1}, 1)

	// Zero-demand rows and columns: runs of equal values, at index 0,
	// in the middle and at the end.
	r := xrand.New(3)
	demand := make([][]float64, 9)
	sum := 0.0
	for i := range demand {
		demand[i] = make([]float64, 7)
		for j := range demand[i] {
			if i == 0 || i == 4 || i == 8 || j == 0 || j == 3 || j == 6 {
				continue
			}
			demand[i][j] = r.Float64()
			sum += demand[i][j]
		}
	}
	for i := range demand {
		for j := range demand[i] {
			demand[i][j] /= sum
		}
	}
	flat := demandCDF(demand)
	checkGuide(t, "zero rows and columns", flat, 1)

	// A CDF left unnormalized and drawn as u·total, as DynamicStream
	// does, for totals that do not scale exactly.
	for _, total := range []float64{0.73, 3.7, 1e-9, 0} {
		scaled := make([]float64, len(flat))
		for i, v := range flat {
			scaled[i] = v * total
		}
		checkGuide(t, fmt.Sprintf("scaled by %v", total), scaled, scaled[len(scaled)-1])
	}
}

// TestGuideRebuild reuses one guide for CDFs of equal and of different
// lengths, as DynamicStream.rebuild does for every catalog event.
func TestGuideRebuild(t *testing.T) {
	var g Guide
	for _, L := range []int{100, 100, 7, 3000} {
		cdf := NewZipf(L, 0.8).cdf
		g.Build(cdf, 1)
		r := xrand.New(uint64(L))
		for i := 0; i < 2000; i++ {
			u := r.Float64()
			if got, want := g.Search(u), sort.SearchFloat64s(cdf, u); got != want {
				t.Fatalf("L=%d: Search(%v) = %d, want %d", L, u, got, want)
			}
		}
	}
}

// TestZipfSampleIsInverseCDF pins the draw itself: one uniform variate
// per sample, mapped through the CDF exactly as before the guide.
func TestZipfSampleIsInverseCDF(t *testing.T) {
	z := NewZipf(2000, 1)
	a, b := xrand.New(17), xrand.New(17)
	for i := 0; i < 100000; i++ {
		if got, want := z.Sample(a), sort.SearchFloat64s(z.cdf, b.Float64())+1; got != want {
			t.Fatalf("draw %d: Sample = %d, inverse CDF = %d", i, got, want)
		}
	}
}

// FuzzGuideSearch builds a CDF from arbitrary weights — a zero byte is a
// zero-demand cell — normalized like Stream's or left scaled like
// DynamicStream's, and checks the whole probe set plus the fuzzer's own
// draw against the oracle.
func FuzzGuideSearch(f *testing.F) {
	f.Add([]byte{1}, false, 0.0)
	f.Add([]byte{0, 0, 5, 0, 0, 9, 0}, false, 0.5)
	f.Add([]byte{0, 0, 5, 0, 0, 9, 0}, true, 0.999)
	f.Add([]byte{255, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, true, 0.25)
	f.Add([]byte{0, 0, 0}, true, 0.1)
	f.Fuzz(func(t *testing.T, weights []byte, scaled bool, u float64) {
		if len(weights) == 0 {
			return
		}
		cdf := make([]float64, len(weights))
		cum := 0.0
		for i, w := range weights {
			// Uneven increments, so that the values are not all
			// short binary fractions.
			cum += float64(w) * (1 + float64(i%7)/7)
			cdf[i] = cum
		}
		total := cum
		if !scaled {
			if cum == 0 {
				return
			}
			for i := range cdf {
				cdf[i] /= cum
			}
			cdf[len(cdf)-1] = 1
			total = 1
		}
		checkGuide(t, "fuzz", cdf, total)
		var g Guide
		g.Build(cdf, total)
		if got, want := g.Search(u), sort.SearchFloat64s(cdf, u*total); got != want {
			t.Fatalf("Search(%v) = %d, sort.SearchFloat64s = %d over %v (total %v)", u, got, want, cdf, total)
		}
	})
}
