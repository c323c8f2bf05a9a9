package lrumodel

import (
	"math"

	"repro/internal/stats"
)

// This file implements the closed-form LRU model in the spirit of
// Laoutaris, "A Closed-Form Method for LRU Replacement under
// Generalized Power-Law Demand": replace the O(B) summation of
// Equation (2) and the O(L) summation of Equation (1) with integral
// forms whose cost is independent of the cache and catalog sizes.
//
// Equation (2) is a Riemann sum of 1/(1-x·s) over x = 0..B-1 with
// s = p_B/(B-1); the midpoint rule gives the closed form
//
//	K ≈ (1/s)·ln( (1 + s/2) / (1 - (B-1/2)·s) ).
//
// Equation (1) is split: the first closedformHeadRanks ranks — which
// carry most of the Zipf mass and where (1-p)^K is far from its
// exponential limit — are summed exactly, and the power-law tail is
// integrated in log-rank space by fixed-order Gauss–Legendre
// quadrature using the continuum approximation (1-p)^K ≈ e^(-K·p)
// (accurate because tail ranks have p « 1). The substitution
// t = ln(rank) turns the integrand into a smooth, nearly-constant-
// curvature function that closedformNodes nodes capture to well under
// the model's own error against simulation.
//
// Validity envelope: the head/tail split is exact for catalogs up to
// closedformExactL objects (the loop is cheaper than quadrature
// there); beyond that the approximation error stays within ~1e-3
// absolute hit ratio for θ ∈ [0, 2] (see TestClosedFormMatchesEq1),
// an order of magnitude below the paper model's own gap to the
// simulator. The closed-form K diverges from Equation (2) only when
// p_B → 1, where the midpoint rule saturates a few slots early (both
// saturate the hit ratio); the law reads it through a running maximum
// over B so that it stays monotone there (see charTime).

// closedformExactL is the catalog size below which the exact Equation
// (1) loop is used verbatim: quadrature only pays off once L exceeds
// the head-plus-node work.
const closedformExactL = 64

// closedformHeadRanks is the number of leading ranks summed exactly
// before switching to the tail integral.
const closedformHeadRanks = 32

// closedformNodes is the Gauss–Legendre order used for the tail.
const closedformNodes = 32

// closedformLaw is the ModelClosedForm strategy.
type closedformLaw struct{}

// charTime is the running maximum of closedformK over slot counts up to
// B. The midpoint rule's singularity sits half a slot past Equation
// (2)'s last term, so once a cache holds nearly all of a server's
// requested mass (p_B ≥ (B−1)/(B−1/2)) the raw form reads +Inf — and a
// slot later, when the next object adds less mass than the singularity
// recedes, a finite K again. A larger cache must never predict a shorter
// characteristic time (the placement's seeded bounds rest on it), so
// the law keeps the envelope; wherever the raw form already increases
// the two are the same bits.
//
// The envelope takes few logarithms. Across a slot where the rule's
// upper integration point U(b) = (b−1/2)·p_b/(b−1) (closedformSpan)
// does not fall, neither does the raw K: the interval grows by a slot,
// and where the step s = p_b/(b−1) shrinks, the rescaled integral loses
// at most (s−s')/2 at its lower end while it is at least s/2. So the
// maximum is attained at B or at some b < B where U falls next;
// p.kPeak[b] is the largest raw K over those ends below b, extended on
// demand.
func (closedformLaw) charTime(p *Predictor, B int) float64 {
	for b := len(p.kPeak); b <= B; b++ {
		peak := 0.0
		if b > 0 {
			peak = p.kPeak[b-1]
		}
		if b >= 3 && closedformSpan(b, p.TopMass(b)) < closedformSpan(b-1, p.TopMass(b-1)) {
			peak = math.Max(peak, closedformK(b-1, p.TopMass(b-1)))
		}
		p.kPeak = append(p.kPeak, peak)
	}
	return math.Max(p.kPeak[B], closedformK(B, p.TopMass(B)))
}

func (closedformLaw) siteHit(p *Predictor, j int, pSite, K float64) float64 {
	return closedformHitRatio(pSite, p.zipfs[j], K)
}

// closedformK is the O(1) integral form of Equation (2). It matches
// kApprox's conventions: 0 for an empty cache, 1 for a single slot,
// +Inf when p_B ≥ 1 or the log argument degenerates.
func closedformK(B int, pB float64) float64 {
	switch {
	case B <= 0:
		return 0
	case B == 1:
		return 1
	case pB >= 1:
		return math.Inf(1)
	case pB <= 0:
		return float64(B) // every term is exactly 1
	}
	s := pB / float64(B-1)
	denom := 1 - closedformSpan(B, pB)
	if denom <= 1e-12 {
		return math.Inf(1)
	}
	return math.Log((1+0.5*s)/denom) / s
}

// closedformSpan is U = (B−1/2)·s with s = p_B/(B−1): the midpoint
// rule's upper integration point in closedformK, whose log argument
// degenerates as U → 1. B ≥ 2.
func closedformSpan(B int, pB float64) float64 {
	return (float64(B) - 0.5) * (pB / float64(B-1))
}

// glNodes / glWeights are the Gauss–Legendre abscissas and weights on
// [-1, 1], computed once by Newton iteration on the Legendre
// polynomial (no tabulated constants to mistype).
var glNodes, glWeights = gaussLegendre(closedformNodes)

func gaussLegendre(n int) ([]float64, []float64) {
	x := make([]float64, n)
	w := make([]float64, n)
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Chebyshev-based initial guess for the i-th root.
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p1, p2 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = ((2*float64(j)+1)*z*p2 - float64(j)*p3) / (float64(j) + 1)
			}
			pp = float64(n) * (z*p1 - p2) / (z*z - 1)
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) < 1e-15 {
				break
			}
		}
		x[i] = -z
		x[n-1-i] = z
		w[i] = 2 / ((1 - z*z) * pp * pp)
		w[n-1-i] = w[i]
	}
	return x, w
}

// closedformHitRatio evaluates Equation (1)'s structural form with
// cost independent of the catalog size L: exact head sum plus a
// Gauss–Legendre tail integral in log-rank space.
func closedformHitRatio(pSite float64, z *stats.Zipf, K float64) float64 {
	if K <= 0 || pSite <= 0 {
		return 0
	}
	if math.IsInf(K, 1) {
		// Never evicted: every object is present after its first
		// request, so the site hit ratio is the full Zipf mass.
		return 1
	}
	if z.L <= closedformExactL {
		return hitRatioExact(pSite, z, K)
	}

	// Exact head: ranks 1..H carry the bulk of the mass and the
	// largest per-object probabilities, where (1-p)^K must not be
	// replaced by its exponential limit.
	h := 0.0
	head := closedformHeadRanks
	for _, q := range z.PMFs()[:head] {
		h += hitProb(pSite*q, K) * q
	}

	// Tail integral over local ranks k ∈ [H+1, L], midpoint-extended
	// to [H+1/2, L+1/2]. With global rank r = Start+k-1 the PMF is
	// α·r^(-θ); substituting t = ln(r) gives
	//
	//	∫ (1 - e^(-K·pSite·α·e^(-θt))) · α·e^((1-θ)t) dt
	//
	// over t ∈ [ln(Start+H-1/2), ln(Start+L-1/2)].
	alpha := z.Alpha()
	theta := z.Theta
	rLo := float64(z.Start) + float64(head) - 0.5
	rHi := float64(z.Start) + float64(z.L) - 0.5
	tLo := math.Log(rLo)
	tHi := math.Log(rHi)
	mid := 0.5 * (tHi + tLo)
	half := 0.5 * (tHi - tLo)
	tail := 0.0
	for i, xn := range glNodes {
		t := mid + half*xn
		q := alpha * math.Exp(-theta*t)
		tail += glWeights[i] * (1 - math.Exp(-K*pSite*q)) * q * math.Exp(t)
	}
	return h + half*tail
}
