package lrumodel

import (
	"math"

	"repro/internal/stats"
)

// This file is the package's one evaluation of (1−x)^K, the factor of
// Equation (1) that both LRU laws (eq1 and che) spend their time in. It
// is computed as exp(K·log1p(−x)): that is exact in x — math.Pow(1−x, K) first rounds 1−x, an error the
// exponent then multiplies by K — and it lets both halves be cheap over
// a site's PMF, where x = p·q_k falls with the rank k:
//
//   - log1p(−x) = −(x + x²/2 + x³/3 + …) is truncated after the x¹⁰
//     term below 2⁻⁶ and after the x⁵ term below 2⁻¹³ (the first
//     dropped term is under 2⁻⁶⁰ of the sum either way); only the at
//     most 64·p ranks above 2⁻⁶ pay for math.Log1p.
//   - e^y on [−40, 0] is 2^(−n/64)·e^r with n = round(−y·64/ln 2) from
//     a 64-entry table and |r| ≤ ln 2/128, where e^r − 1 is a degree-6
//     polynomial (truncation under 2⁻⁵⁷ of r). Below −40, e^y is under
//     half an ulp of 1 and is skipped.
//
// What the sum wants is 1 − e^y, so that is what oneMinusExp returns,
// with no cancellation near y = 0: for n < 64 it starts from a table of
// 1 − 2^(−n/64) instead of subtracting a rounded 2^(−n/64) from 1.
// Every term is within a few ulp of its true value and the terms are
// added up in blocks, which puts the sum within 1e-13 of a compensated
// math.Expm1/Log1p evaluation for catalogs of up to 20 000 objects
// (kernel_test.go); the memo grid it feeds is quantized six orders of
// magnitude coarser.
//
// Nearly every term of a realistic site (97.5 % of a cold ×1 placement
// solve's) falls on the 5-term series, and on amd64 CPUs with AVX2 that
// loop runs four ranks per instruction (seriesTailAVX2 in
// kernel_amd64.s; the CPU is checked once at start-up, and elsewhere
// the Go loop is the only path). It returns the Go loop's bits: each
// lane does the Go loop's multiplies and adds in the same order, with
// no fused multiply-add and with constants from the same constant
// expressions (vecConsts), reads the same tables, builds the same
// 2^(−n/64) from exponent bits and takes 1 where !(y ≥ expFloor); the
// four products then join the block's sum one by one, in rank order.
// The Go loop stays as written, for the 0–3 ranks left after the
// groups of four and as the oracle the tests hold the vector path to.

const (
	expTableSize = 64
	expStep      = math.Ln2 / expTableSize
	// expFloor: e^-40 < 2^-54, so 1 − e^y rounds to 1 below it.
	expFloor = -40.0
	// log1pSeriesMax and log1pShortMax bound the x for which the
	// 10-term and the 5-term series of log1p(−x) are exact to double
	// precision.
	log1pSeriesMax = 1.0 / (1 << 6)
	log1pShortMax  = 1.0 / (1 << 13)
	// sumBlock is the number of consecutive terms of Equation (1) added
	// up before they join the total.
	sumBlock = 128
)

// expNeg[j] = 2^(−j/64) and expNegOm[j] = 1 − 2^(−j/64), computed once
// (no tabulated constants to mistype).
var expNeg, expNegOm = func() (t, om [expTableSize]float64) {
	for j := range t {
		t[j] = math.Exp(-float64(j) * expStep)
		om[j] = -math.Expm1(-float64(j) * expStep)
	}
	return t, om
}()

// oneMinusExp returns 1 − e^y for y ≤ 0 (and 1 for NaN, which only a
// NaN input to the callers can produce).
func oneMinusExp(y float64) float64 {
	if !(y >= expFloor) {
		return 1
	}
	n := int(0.5 - y*(1/expStep))
	r := y + float64(n)*expStep
	em1 := r + r*r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120+r*(1.0/720)))))
	t := expNeg[n&(expTableSize-1)]
	if n < expTableSize {
		return expNegOm[n&(expTableSize-1)] - t*em1
	}
	t *= math.Float64frombits(uint64(1023-n/expTableSize) << 52)
	return 1 - (t + t*em1)
}

// hitProb returns 1 − (1−x)^K, the probability that an object requested
// with probability x per slot was requested within the last K slots,
// for x ≥ 0 and K ≥ 0.
func hitProb(x, K float64) float64 {
	if x >= 1 {
		return 1
	}
	return oneMinusExp(K * math.Log1p(-x))
}

// hitRatioExact is the raw Equation (1) for one site: the probability
// that the requested object was requested at least once within the last K
// time slots, averaged over the site's Zipf-distributed object choice.
func hitRatioExact(pSite float64, z *stats.Zipf, K float64) float64 {
	return hitRatioSum(pSite, z.PMFs(), K, useAVX2)
}

// hitRatioSum is hitRatioExact over the PMF pmf. With vec, each block's
// short-series tail goes four ranks at a time through seriesTailAVX2,
// which returns the Go loop's bits; the 0–3 ranks left over, and every
// rank without vec, take the Go loop.
func hitRatioSum(pSite float64, pmf []float64, K float64, vec bool) float64 {
	if !(K > 0 && pSite > 0) {
		return 0
	}
	never := math.IsInf(K, 1) // the cache never evicts
	h := 0.0
	// Terms are summed in blocks, so that the rounding error of the sum
	// grows with the block count and size, not with L.
	for lo := 0; lo < len(pmf); lo += sumBlock {
		blk := pmf[lo:min(lo+sumBlock, len(pmf))]
		acc := 0.0
		// The PMF falls with the rank, so x = pSite·q passes each
		// threshold once: certain hits, math.Log1p, the long series,
		// the short one.
		i := 0
		for ; i < len(blk) && (never || pSite*blk[i] >= 1); i++ {
			acc += blk[i]
		}
		for ; i < len(blk) && pSite*blk[i] >= log1pSeriesMax; i++ {
			acc += oneMinusExp(K*math.Log1p(-pSite*blk[i])) * blk[i]
		}
		for ; i < len(blk) && pSite*blk[i] >= log1pShortMax; i++ {
			x := pSite * blk[i]
			l := -x * (1 + x*(1.0/2+x*(1.0/3+x*(1.0/4+x*(1.0/5+x*(1.0/6+x*(1.0/7+x*(1.0/8+x*(1.0/9+x*(1.0/10))))))))))
			acc += oneMinusExp(K*l) * blk[i]
		}
		tail := blk[i:]
		if n := len(tail) &^ 3; vec && n > 0 {
			acc = seriesTailAVX2(tail[:n], pSite, K, acc)
			tail = tail[n:]
		}
		for _, q := range tail {
			x := pSite * q
			l := -x * (1 + x*(1.0/2+x*(1.0/3+x*(1.0/4+x*(1.0/5)))))
			acc += oneMinusExp(K*l) * q
		}
		h += acc
	}
	return h
}
