package lrumodel

import "math"

// This file is the model's cheap upper bound on a site's hit ratio. The
// placement's lazy cold start screens cells with bounds and verifies
// only the cells that reach the top of its heap; the bounds must never
// undercut the model, but they need not equal it. Every law's site hit
// ratio has the form
//
//	h = Σ_k q_k·g(p·q_k)
//
// over the site's Zipf PMF q, with g the per-object hit probability:
// 1 − (1−x)^K for eq1 and che (Equation (1)), xT/(1+xT) for the
// RANDOM/FIFO law. Cut the ranks into blocks b with weights
// W_b = Σ_{k∈b} q_k and means M_b = Σ_{k∈b} q_k²/W_b. Within a block the
// q_k/W_b are a probability distribution over the x = p·q_k, so for a
// concave g Jensen's inequality gives
//
//	Σ_{k∈b} q_k·g(p·q_k) ≤ W_b·g(p·M_b),
//
// and summing over blocks bounds h — a theorem, not a measured envelope.
// 1 − (1−x)^K is concave on [0, 1] for K ≥ 1 (below, the eq1 and che
// bounds return the exact value), and xT/(1+xT) is concave for every
// T ≥ 0.
//
// The gap is the within-block curvature: a block whose largest PMF is
// at most jensenBlockRatio times its smallest keeps its x within a
// factor 1.25 of one another, and over L ∈ {200, 2000, 20 000},
// θ ∈ {0, 0.6, 1, 1.2}, rank offsets {0, 50}, p ∈ [1e-3, 1] and
// K ∈ [0, 1e6] ∪ {+Inf} the bound sits at most 1.24e-3 (relative) above
// the exact sum (TestSiteHitUpperBound pins 2e-3, FuzzSiteHitUpper
// searches further). A θ = 1 site of L = 2000 has 29 blocks, of 20 000
// has 39: ~30 terms instead of L.

// jensenBlockRatio is the largest PMF ratio within one block.
const jensenBlockRatio = 1.25

// zipfBlock is one block's weight W and mean M.
type zipfBlock struct{ w, m float64 }

// zipfBlocks cuts a descending PMF into blocks with
// pmf[first] ≤ jensenBlockRatio·pmf[last]. The sums are compensated: a
// flat PMF is one block of L terms, whose plain running sum would drift
// further from the true W than the exact sum's blocked one does.
func zipfBlocks(pmf []float64) []zipfBlock {
	var out []zipfBlock
	for a := 0; a < len(pmf); {
		var w, sq neumaier
		b := a
		for ; b < len(pmf) && pmf[a] <= jensenBlockRatio*pmf[b]; b++ {
			w.add(pmf[b])
			sq.add(pmf[b] * pmf[b])
		}
		blk := zipfBlock{w: w.sum()}
		if blk.w > 0 {
			blk.m = sq.sum() / blk.w
		}
		out = append(out, blk)
		a = b
	}
	return out
}

// neumaier is a compensated running sum.
type neumaier struct{ s, c float64 }

func (n *neumaier) add(x float64) {
	t := n.s + x
	if math.Abs(n.s) >= math.Abs(x) {
		n.c += (n.s - t) + x
	} else {
		n.c += (x - t) + n.s
	}
	n.s = t
}

func (n *neumaier) sum() float64 { return n.s + n.c }

// jensenPad is the factor jensenUpper's sums are padded by. Both the
// bound and the exact sum round — the RANDOM/FIFO sum term by term, so a
// flat catalog's value, which the bound meets with equality, can sit
// hundreds of ulps above the true sum — so the bound is padded by the
// worst-case error of two sums of at most L non-negative terms and a few
// ulps per term, 2·(L+8)·2⁻⁵³ relative: it bounds the values the laws
// compute, not only the true ones.
func jensenPad(L int) float64 { return 1 + float64(2*(L+8))*0x1p-53 }

// jensenUpper returns Σ_b W_b·g(M_b), padded, for a g concave on the
// block means of a site of L objects.
func jensenUpper(blocks []zipfBlock, L int, g func(q float64) float64) float64 {
	h := 0.0
	for _, b := range blocks {
		h += b.w * g(b.m)
	}
	return h * jensenPad(L)
}

// siteHitUpper bounds hitRatioExact for site j (eq1 and che) at every
// characteristic time of ks: the Jensen sum for K ≥ 1, the exact value
// below (where g is convex) and at the edges. A block's
// log1p(−pSite·M_b) does not depend on K, so it is taken once for all
// of ks; each K's sum then adds W_b·(1 − e^{K·log}) block by block, the
// arithmetic and order of the one-K sum.
func (eq1Law) siteHitUpper(p *Predictor, j int, pSite float64, ks, out []float64) {
	jensen := pSite > 0
	for x, K := range ks {
		if jensen && K >= 1 {
			out[x] = 0
		} else {
			out[x] = hitRatioExact(pSite, p.zipfs[j], K)
		}
	}
	if !jensen {
		return
	}
	for _, b := range p.blocks[j] {
		q := pSite * b.m
		if q >= 1 {
			for x, K := range ks {
				if K >= 1 {
					out[x] += b.w
				}
			}
			continue
		}
		lg := math.Log1p(-q)
		for x, K := range ks {
			if K >= 1 {
				out[x] += b.w * oneMinusExp(K*lg)
			}
		}
	}
	pad := jensenPad(p.zipfs[j].L)
	for x, K := range ks {
		if K >= 1 {
			out[x] *= pad
		}
	}
}

func (randomLaw) siteHitUpper(p *Predictor, j int, pSite float64, ts, out []float64) {
	for x, T := range ts {
		if !(T > 0 && pSite > 0) || math.IsInf(T, 1) {
			out[x] = randomSiteHit(pSite, p.zipfs[j], T)
			continue
		}
		out[x] = jensenUpper(p.blocks[j], p.zipfs[j].L, func(q float64) float64 {
			v := pSite * q * T
			return v / (1 + v)
		})
	}
}

// SiteHitRatioCondUpper is an upper bound on SiteHitRatioCond(j,
// visibleMass, cacheBytes) at ~30 terms of Equation (1)'s form instead
// of L: SiteHitRatioCondUpperSizes at one cache size.
func (p *Predictor) SiteHitRatioCondUpper(j int, visibleMass float64, cacheBytes int64) float64 {
	var out [1]float64
	p.SiteHitRatioCondUpperSizes(j, visibleMass, []int64{cacheBytes}, out[:])
	return out[0]
}

// SiteHitRatioCondUpperSizes stores in out[x] an upper bound on
// SiteHitRatioCond(j, visibleMass, cacheBytes[x]) for every x. Each
// bound reads the same λ factor, popularity clamp and quantized (p, K)
// grid point as the model, and is the exact value when this predictor
// has memoized it. The grid popularity depends only on visibleMass, so
// under the LRU laws the per-block logarithms are shared by all sizes.
// It never stores a hit ratio, and it does not consult the shared
// table: a bound that depends only on the predictor's own history is
// the same at every Parallelism, and so are the lookups and the
// verifications it saves.
func (p *Predictor) SiteHitRatioCondUpperSizes(j int, visibleMass float64, cacheBytes []int64, out []float64) {
	out = out[:len(cacheBytes)]
	if visibleMass <= 0 {
		clear(out)
		return
	}
	keep := 1 - p.specs[j].Lambda
	ks, at := p.upperK[:0], p.upperAt[:0]
	pSite := 0.0
	for x, c := range cacheBytes {
		K := p.K(c)
		key := p.gridKey(j, visibleMass, K)
		if h, ok := p.hmemo[key]; ok {
			out[x] = h * keep
			continue
		}
		var kEff float64
		pSite, kEff = p.gridPoint(key, K)
		ks, at = append(ks, kEff), append(at, x)
	}
	p.upperK, p.upperAt = ks, at
	if len(ks) == 0 {
		return
	}
	if cap(p.upperH) < len(ks) {
		p.upperH = make([]float64, len(ks))
	}
	h := p.upperH[:len(ks)]
	p.law.siteHitUpper(p, j, pSite, ks, h)
	for y, x := range at {
		out[x] = h[y] * keep
	}
}
