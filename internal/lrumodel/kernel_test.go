package lrumodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// hitRatioPow is the seed's Equation (1) loop, kept as the oracle the
// kernel replaced. It also returns a bound on its own rounding error:
// 1−x is rounded before math.Pow raises it to K, which moves the term by
// up to K·(1−x)^(K−1) half-ulps of 1, and the subtraction from 1 rounds
// once more.
func hitRatioPow(pSite float64, z *stats.Zipf, K float64) (h, errBound float64) {
	if K <= 0 || pSite <= 0 {
		return 0, 0
	}
	const u = 1.0 / (1 << 53)
	for k := 1; k <= z.L; k++ {
		q := z.PMF(k)
		pObj := pSite * q
		var miss float64
		switch {
		case math.IsInf(K, 1):
			miss = 0
		case pObj >= 1:
			miss = 0
		default:
			miss = math.Pow(1-pObj, K)
			errBound += q * u * (K*miss/(1-pObj) + 2)
		}
		h += (1 - miss) * q
	}
	return h, errBound
}

// hitRatioKahan is Equation (1) through the standard library's Expm1 and
// Log1p, with compensated summation: the closest to the true sum that
// float64 arithmetic gives without extended precision.
func hitRatioKahan(pSite float64, z *stats.Zipf, K float64) float64 {
	if K <= 0 || pSite <= 0 {
		return 0
	}
	var sum, c float64
	for k := 1; k <= z.L; k++ {
		q := z.PMF(k)
		term := q
		if x := pSite * q; x < 1 && !math.IsInf(K, 1) {
			term = -math.Expm1(K*math.Log1p(-x)) * q
		}
		y := term - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// vecUntestable says why the AVX2 tail cannot be held to the Go loop's
// bits in this build, or is empty when it can (kernel_v3_test.go sets
// it for GOAMD64=v3 and later).
var vecUntestable = func() string {
	if !useAVX2 {
		return "no AVX2 on this CPU or architecture: only the Go loop runs"
	}
	return ""
}()

// checkKernel holds one evaluation to the numerics contract: within
// 1e-11 relative of the seed's Pow loop (beyond that loop's own rounding
// of 1−x) and within 1e-13 absolute of the compensated oracle. Where the
// AVX2 tail runs, it must also return the Go loop's bits.
func checkKernel(t *testing.T, z *stats.Zipf, p, K float64) {
	t.Helper()
	got := hitRatioExact(p, z, K)
	if math.IsNaN(got) || got < 0 || got > 1+1e-12 {
		t.Fatalf("L=%d θ=%v start=%d p=%v K=%v: h = %v outside [0, 1]", z.L, z.Theta, z.Start, p, K, got)
	}
	if vecUntestable == "" {
		if port := hitRatioSum(p, z.PMFs(), K, false); math.Float64bits(got) != math.Float64bits(port) {
			t.Errorf("L=%d θ=%v start=%d p=%v K=%v: AVX2 tail %v (%#x) vs Go loop %v (%#x)",
				z.L, z.Theta, z.Start, p, K, got, math.Float64bits(got), port, math.Float64bits(port))
		}
	}
	pow, powErr := hitRatioPow(p, z, K)
	if d := math.Abs(got - pow); d > 1e-11*pow+powErr {
		t.Errorf("L=%d θ=%v start=%d p=%v K=%v: kernel %v vs Pow loop %v (off by %.3g, allowed %.3g)",
			z.L, z.Theta, z.Start, p, K, got, pow, d, 1e-11*pow+powErr)
	}
	if want := hitRatioKahan(p, z, K); math.Abs(got-want) > 1e-13 {
		t.Errorf("L=%d θ=%v start=%d p=%v K=%v: kernel %v vs compensated oracle %v (off by %.3g)",
			z.L, z.Theta, z.Start, p, K, got, want, math.Abs(got-want))
	}
}

var (
	kernelThetas  = []float64{0, 0.6, 1, 1.4, 2}
	kernelSizes   = []int{1, 2, 63, 64, 200, 2000, 20000}
	kernelOffsets = []int{0, 500}
)

func TestSiteHitEq1Contract(t *testing.T) {
	ps := []float64{1e-6, 1e-5, 3.3e-4, 1e-3, 0.0123, 0.05, 0.25, 0.7, 1}
	Ks := []float64{1, 2.5, 5, 37, 1e3, 12345, 1e5, 1e6, 1e8}
	for _, theta := range kernelThetas {
		for _, L := range kernelSizes {
			for _, off := range kernelOffsets {
				z := stats.NewZipfRange(off+1, L, theta)
				for _, p := range ps {
					for _, K := range Ks {
						checkKernel(t, z, p, K)
					}
				}
			}
		}
	}
}

func TestSiteHitEq1EdgeCases(t *testing.T) {
	z := stats.NewZipf(200, 1)
	one := stats.NewZipf(1, 1)
	sum := 0.0
	for _, q := range z.PMFs() {
		sum += q
	}
	cases := []struct {
		name string
		z    *stats.Zipf
		p, K float64
		want float64
	}{
		{"K=0", z, 0.1, 0, 0},
		{"K<0", z, 0.1, -3, 0},
		{"K=NaN", z, 0.1, math.NaN(), 0},
		{"p=0", z, 0, 100, 0},
		{"p<0", z, -0.1, 100, 0},
		{"p=NaN", z, math.NaN(), 100, 0},
		{"K=+Inf", z, 0.1, math.Inf(1), sum},
		{"x=1", one, 1, 7, 1},
		{"x>1", one, 1.5, 7, 1},
		{"x>1, K=+Inf", one, 1.5, math.Inf(1), 1},
	}
	for _, c := range cases {
		if got := hitRatioExact(c.p, c.z, c.K); got != c.want {
			t.Errorf("%s: h = %v, want %v", c.name, got, c.want)
		}
	}
	// x ≥ 1 for the first ranks only: those ranks hit with certainty and
	// the rest go through the kernel.
	checkKernel(t, stats.NewZipf(3, 2), 1.4, 3)
}

// TestSeriesTailAVX2 runs checkKernel, and with it the AVX2 tail's
// bit-for-bit check, over random draws, and asserts that the draws
// reach what the vector path can get wrong: blocks whose tail leaves
// 0–3 ranks after the groups of four, L < 4, and groups of four whose
// lanes fall on both sides of n = 64 (oneMinusExp's two formulas) and
// of expFloor.
func TestSeriesTailAVX2(t *testing.T) {
	if vecUntestable != "" {
		t.Skip(vecUntestable)
	}
	rng := rand.New(rand.NewSource(33))
	var rems [4]bool
	var smallL, split64, splitFloor bool
	thetas := []float64{0.6, 0.8, 1, 1.2}
	for d := 0; d < 3000; d++ {
		L := 1 + rng.Intn(3000)
		if d%2 == 0 {
			L = 1 + rng.Intn(8)
		}
		z := stats.NewZipfRange(1+rng.Intn(500), L, thetas[rng.Intn(len(thetas))])
		p := math.Pow(10, -6*rng.Float64())
		K := math.Pow(10, 8*rng.Float64())
		checkKernel(t, z, p, K)
		smallL = smallL || L < 4
		pmf := z.PMFs()
		for lo := 0; lo < len(pmf); lo += sumBlock {
			blk := pmf[lo:min(lo+sumBlock, len(pmf))]
			i := 0
			for i < len(blk) && p*blk[i] >= log1pShortMax {
				i++
			}
			tail := blk[i:]
			if len(tail) >= 4 {
				rems[len(tail)%4] = true
			}
			for g := 0; g+4 <= len(tail); g += 4 {
				var below64, floorIn int
				for _, q := range tail[g : g+4] {
					x := p * q
					y := K * (-x * (1 + x*(1.0/2+x*(1.0/3+x*(1.0/4+x*(1.0/5))))))
					if int(0.5-y*(1/expStep)) < expTableSize {
						below64++
					}
					if y >= expFloor {
						floorIn++
					}
				}
				split64 = split64 || below64%4 != 0
				splitFloor = splitFloor || floorIn%4 != 0
			}
		}
	}
	// Term by term: one rank in a group of four, q = 0 in the other lanes
	// (each adds exactly 0), so a lane off by one ulp cannot round away
	// in a sum. −y = K·x is drawn uniformly over [0, 45], log-uniformly
	// down to 1e-12, and uniformly over n = 0, where the term is e^r − 1
	// itself and a fused multiply-add shows most often.
	negY := [...]func() float64{
		func() float64 { return 45 * rng.Float64() },
		func() float64 { return math.Pow(10, -12+13.6*rng.Float64()) },
		func() float64 { return expStep / 2 * rng.Float64() },
	}
	for d := 0; d < 100000; d++ {
		var group [4]float64
		x := math.Pow(2, -13-27*rng.Float64())
		y := negY[d%len(negY)]()
		p := math.Pow(10, -6*rng.Float64())
		lane := rng.Intn(4)
		group[lane] = x / p
		if got, want := hitRatioSum(p, group[:], y/x, true), hitRatioSum(p, group[:], y/x, false); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lane %d, p=%v q=%v K=%v: AVX2 term %v vs Go loop %v", lane, p, group[lane], y/x, got, want)
		}
	}
	for r, ok := range rems {
		if !ok {
			t.Errorf("no block's tail left %d ranks after the groups of four", r)
		}
	}
	if !smallL || !split64 || !splitFloor {
		t.Errorf("draws miss a case: L < 4 %v, a group split at n = 64 %v, a group split at expFloor %v", smallL, split64, splitFloor)
	}
}

// TestOneMinusExp pins the exp half of the kernel on its own, including
// the table's seams and both sides of the −40 floor.
func TestOneMinusExp(t *testing.T) {
	ys := []float64{0, -1e-300, -1e-18, -1e-9, -expStep / 2, -expStep, -63.5 * expStep, -64 * expStep,
		-math.Ln2, -1, -10, -39.999, expFloor, -40.001, -1e3, math.Inf(-1)}
	for y := -1e-4; y > -45; y *= 1.07 {
		ys = append(ys, y)
	}
	for _, y := range ys {
		got, want := oneMinusExp(y), -math.Expm1(y)
		if math.Abs(got-want) > 4e-16*want {
			t.Errorf("oneMinusExp(%v) = %v, want %v (off by %.3g relative)", y, got, want, math.Abs(got-want)/want)
		}
	}
	if got := oneMinusExp(math.NaN()); got != 1 {
		t.Errorf("oneMinusExp(NaN) = %v, want 1", got)
	}
}

// TestSiteHitEq1Monotone: h is non-decreasing in K and in p. The
// placement heap's optimistic seeds assume it.
func TestSiteHitEq1Monotone(t *testing.T) {
	for _, theta := range kernelThetas {
		for _, L := range []int{64, 2000} {
			z := stats.NewZipf(L, theta)
			const n = 50
			var grid [n][n]float64
			for a := 0; a < n; a++ {
				p := math.Pow(10, -6+6*float64(a)/(n-1))
				for b := 0; b < n; b++ {
					K := math.Pow(10, 8*float64(b)/(n-1))
					grid[a][b] = hitRatioExact(p, z, K)
				}
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if b > 0 && grid[a][b] < grid[a][b-1] {
						t.Errorf("θ=%v L=%d: h falls in K at p-index %d, K-index %d: %v < %v", theta, L, a, b, grid[a][b], grid[a][b-1])
					}
					if a > 0 && grid[a][b] < grid[a-1][b] {
						t.Errorf("θ=%v L=%d: h falls in p at p-index %d, K-index %d: %v < %v", theta, L, a, b, grid[a][b], grid[a-1][b])
					}
				}
			}
		}
	}
}

func FuzzSiteHitEq1(f *testing.F) {
	f.Add(uint8(2), uint16(2000), uint16(0), 0.05, 5000.0)
	f.Add(uint8(0), uint16(1), uint16(500), 1.0, 1e8)
	f.Add(uint8(4), uint16(20000), uint16(0), 1e-6, 1.0)
	f.Add(uint8(3), uint16(63), uint16(500), 0.7, 37.5)
	f.Fuzz(func(t *testing.T, thetaIdx uint8, L, off uint16, p, K float64) {
		if L < 1 || L > 20000 {
			L = L%20000 + 1
		}
		z := stats.NewZipfRange(int(off%1000)+1, int(L), kernelThetas[int(thetaIdx)%len(kernelThetas)])
		if !(p >= 1e-6 && p <= 1) || !(K >= 1 && K <= 1e8) {
			// Outside the contract's range the kernel must still
			// return a probability, not panic.
			if h := hitRatioExact(p, z, K); math.IsNaN(h) || h < 0 || h > 1+1e-12 {
				t.Fatalf("p=%v K=%v: h = %v", p, K, h)
			}
			return
		}
		checkKernel(t, z, p, K)
	})
}

var benchSink float64

// BenchmarkSiteHitEq1 times one cold Equation (1) evaluation — what a
// memo miss costs — on each path of the short-series tail, and reports
// it per object.
func BenchmarkSiteHitEq1(b *testing.B) {
	for _, L := range []int{200, 2000, 20000} {
		for _, path := range []struct {
			name string
			vec  bool
		}{{"portable", false}, {"avx2", true}} {
			b.Run(fmt.Sprintf("L=%d/%s", L, path.name), func(b *testing.B) {
				if path.vec && !useAVX2 {
					b.Skip("no AVX2 on this CPU or architecture")
				}
				pmf := stats.NewZipf(L, 1).PMFs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The benefit fill's range: p around 1/M, K around
					// the cache's slot count.
					benchSink += hitRatioSum(0.03+0.0001*float64(i%400), pmf, 1000+5*float64(i%2000), path.vec)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(L), "ns/object")
			})
		}
	}
}
