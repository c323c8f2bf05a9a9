// Package stats provides the probability distributions and descriptive
// statistics used throughout the reproduction: the Zipf-like object
// popularity of §3.2, the truncated-normal per-server site weights and the
// SURGE-style heavy-tailed object sizes of §5.1, and the response-time CDF
// machinery of §5.2.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Zipf is a Zipf-like distribution over L consecutive global ranks
// starting at Start (normally 1), with exponent theta:
//
//	P(local rank k) = alpha / (Start+k-1)^theta,
//	alpha = 1 / sum_{k=1..L} (Start+k-1)^-theta.
//
// With Start = 1 this is exactly the distribution of Equation (1) in the
// paper. Start > 1 gives the conditional distribution of a popularity
// band — the tail clusters of the per-cluster replication extension
// (Chen et al. [6]). The type precomputes the normalization constant and
// the CDF so that point-mass queries are O(1), and a Guide over the CDF
// so that sampling is O(1) expected.
type Zipf struct {
	L     int
	Start int
	Theta float64
	alpha float64
	pmf   []float64 // pmf[k-1] = P(local rank k), precomputed
	cdf   []float64 // cdf[k-1] = P(local rank <= k)
	guide Guide     // over cdf; read-only once built, like the tables
}

// NewZipf builds a Zipf-like distribution over ranks 1..L. It panics if
// L < 1 or theta < 0: both indicate a configuration bug upstream.
func NewZipf(L int, theta float64) *Zipf {
	return NewZipfRange(1, L, theta)
}

// NewZipfRange builds the conditional Zipf-like distribution over the L
// global ranks start..start+L-1. It panics on invalid parameters.
func NewZipfRange(start, L int, theta float64) *Zipf {
	if start < 1 {
		panic(fmt.Sprintf("stats: NewZipfRange with start=%d", start))
	}
	if L < 1 {
		panic(fmt.Sprintf("stats: NewZipfRange with L=%d", L))
	}
	if theta < 0 {
		panic(fmt.Sprintf("stats: NewZipfRange with theta=%v", theta))
	}
	z := &Zipf{L: L, Start: start, Theta: theta}
	sum := 0.0
	z.pmf = make([]float64, L)
	z.cdf = make([]float64, L)
	for k := 1; k <= L; k++ {
		z.pmf[k-1] = math.Pow(float64(start+k-1), -theta)
		sum += z.pmf[k-1]
		z.cdf[k-1] = sum
	}
	z.alpha = 1 / sum
	for i := range z.cdf {
		z.pmf[i] *= z.alpha
		z.cdf[i] *= z.alpha
	}
	// Guard against floating-point drift: the last CDF entry must be 1.
	z.cdf[L-1] = 1
	// Built here, not on first use: a Zipf is shared read-only across
	// goroutines (lrumodel.SharedTable, the parallel runners).
	z.guide.Build(z.cdf, 1)
	return z
}

// Alpha returns the normalization constant alpha of Equation (1).
func (z *Zipf) Alpha() float64 { return z.alpha }

// PMF returns P(local rank k), for k in 1..L. It is a table lookup: the
// model's inner loops call it billions of times.
func (z *Zipf) PMF(k int) float64 {
	if k < 1 || k > z.L {
		return 0
	}
	return z.pmf[k-1]
}

// PMFs returns the whole table, PMFs()[k-1] = PMF(k), in descending
// order of probability. The slice is the distribution's own storage,
// shared by every holder of z: callers must not modify it.
func (z *Zipf) PMFs() []float64 { return z.pmf }

// CDF returns P(rank <= k). CDF(0) = 0 and CDF(k>=L) = 1.
func (z *Zipf) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= z.L:
		return 1
	default:
		return z.cdf[k-1]
	}
}

// TopMass returns the cumulative probability of the n most popular ranks,
// i.e. CDF(n). It is the p_B quantity of Equation (2) when the cache holds
// objects of a single site.
func (z *Zipf) TopMass(n int) float64 { return z.CDF(n) }

// Sample draws a rank in 1..L by guided inverse-CDF search: one uniform
// draw, mapped to the first index with cdf[i] >= u.
func (z *Zipf) Sample(r *xrand.Source) int {
	return z.guide.Search(r.Float64()) + 1
}

// Guide is a guide table over a non-decreasing CDF whose last value is
// its total mass: it narrows the inverse-CDF search for a uniform draw
// to the few entries one of K equal slices of [0,1) can map to. Search
// returns exactly what sort.SearchFloat64s returns — same predicate,
// same answer at ties between equal neighbours — only without walking
// the whole table: K is the smallest power of two ≥ len(cdf), so u·K and
// b/K are exact in float64, and scaling by the total is monotone, so a
// draw in slice b lands between the answers for the slice's two edges.
type Guide struct {
	cdf []float64
	// first[b] is the first i with cdf[i] >= b/K·total, for b in 0..K.
	first []uint32
	k     float64
	total float64
}

// Build (re)computes the guide over cdf, whose draws are u·total for u
// uniform on [0,1). The guide keeps cdf, and must be rebuilt when its
// values change; a rebuild for the same length reuses the table.
func (g *Guide) Build(cdf []float64, total float64) {
	k := 1
	for k < len(cdf) {
		k <<= 1
	}
	if cap(g.first) < k+1 {
		g.first = make([]uint32, k+1)
	}
	g.cdf, g.first, g.k, g.total = cdf, g.first[:k+1], float64(k), total
	i := 0
	for b := range g.first {
		edge := float64(b) / g.k * total
		for i < len(cdf) && cdf[i] < edge {
			i++
		}
		g.first[b] = uint32(i)
	}
}

// Search returns sort.SearchFloat64s(cdf, u·total): the first index
// with cdf[i] >= u·total, len(cdf) if none. A u outside [0,1) takes the
// plain search.
func (g *Guide) Search(u float64) int {
	x := u * g.total
	if !(u >= 0 && u < 1) {
		return sort.SearchFloat64s(g.cdf, x)
	}
	b := int(u * g.k)
	lo, hi := int(g.first[b]), int(g.first[b+1])
	// The answer lies in [lo, hi]: halve a long stretch, walk a short one.
	for hi-lo > 8 {
		if mid := (lo + hi) / 2; g.cdf[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for lo < hi && g.cdf[lo] < x {
		lo++
	}
	return lo
}

// TruncNormal samples from a normal distribution with the given mean and
// standard deviation, truncated (by rejection) to [mean-3*sigma,
// mean+3*sigma] as prescribed for per-server site popularity in §5.1.
type TruncNormal struct {
	Mean, Sigma float64
}

// Sample draws one truncated-normal variate. With a ±3σ window the
// acceptance probability is ~99.7%, so rejection terminates quickly.
func (t TruncNormal) Sample(r *xrand.Source) float64 {
	if t.Sigma <= 0 {
		return t.Mean
	}
	lo, hi := t.Mean-3*t.Sigma, t.Mean+3*t.Sigma
	for {
		v := t.Mean + t.Sigma*r.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
}

// Lognormal is the SURGE body distribution for web object sizes.
// Mu and Sigma parameterize the underlying normal of ln(X).
type Lognormal struct {
	Mu, Sigma float64
}

// Sample draws one lognormal variate.
func (l Lognormal) Sample(r *xrand.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns the analytic mean exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// BoundedPareto is the SURGE tail distribution for web object sizes:
// a Pareto with shape Alpha and scale K, truncated above at H so that the
// synthetic site sizes have finite variance and reproducible sums.
type BoundedPareto struct {
	K, H  float64 // lower and upper bounds, K < H
	Alpha float64 // shape, > 0
}

// Sample draws one bounded-Pareto variate by inverse transform.
func (p BoundedPareto) Sample(r *xrand.Source) float64 {
	u := r.Float64()
	ka := math.Pow(p.K, p.Alpha)
	ha := math.Pow(p.H, p.Alpha)
	// Inverse CDF of the bounded Pareto.
	x := math.Pow(-(u*ha-u*ka-ha)/(ha*ka), -1/p.Alpha)
	if x < p.K {
		x = p.K
	}
	if x > p.H {
		x = p.H
	}
	return x
}

// Mean returns the analytic mean of the bounded Pareto.
func (p BoundedPareto) Mean() float64 {
	if p.Alpha == 1 {
		ka := p.K
		ha := p.H
		return ka * ha / (ha - ka) * math.Log(ha/ka)
	}
	a := p.Alpha
	ka := math.Pow(p.K, a)
	num := ka / (1 - math.Pow(p.K/p.H, a))
	return num * a / (a - 1) * (math.Pow(p.K, 1-a) - math.Pow(p.H, 1-a))
}
