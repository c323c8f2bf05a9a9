package lrumodel

import (
	"math"

	"repro/internal/stats"
)

// This file implements the analytical RANDOM/FIFO hit-ratio model
// (Gelenbe 1973; Gallo et al., "Performance evaluation of the random
// replacement policy for networks of caches"). Under the independent
// reference model, RANDOM and FIFO replacement have identical
// steady-state hit ratios: an object requested with probability q is
// present with probability
//
//	h(q) = q·T / (1 + q·T),
//
// where the characteristic time T solves the occupancy equation
//
//	Σ_k q_k·T / (1 + q_k·T) = B.
//
// Structurally this mirrors Che's LRU approximation with the
// exponential 1-(1-q)^T replaced by the RANDOM stationary probability;
// the same bisection (occupancyTime) applies because occupancy is
// monotone increasing in T. This lets the hybrid placement optimize
// fleets running the FIFO/RANDOM cache variants in internal/cache.

// randomLaw is the ModelRandom strategy.
type randomLaw struct{}

func (randomLaw) charTime(p *Predictor, B int) float64 { return p.randomT(B) }
func (randomLaw) siteHit(p *Predictor, j int, pSite, K float64) float64 {
	return randomSiteHit(pSite, p.zipfs[j], K)
}

// randomT solves the RANDOM/FIFO occupancy equation for T over the
// predictor's merged object population. It returns +Inf when B covers
// every object with positive request probability.
func (p *Predictor) randomT(B int) float64 {
	return p.occupancyTime(B, func(T float64) float64 {
		total := 0.0
		for j := range p.specs {
			if p.pops[j] == 0 {
				continue
			}
			for _, pmf := range p.zipfs[j].PMFs() {
				q := p.pops[j] * pmf
				total += q * T / (1 + q*T)
			}
		}
		return total
	})
}

// randomSiteHit is the per-site RANDOM/FIFO hit ratio: the stationary
// presence probability q·T/(1+q·T), averaged over the site's Zipf
// object choice.
func randomSiteHit(pSite float64, z *stats.Zipf, T float64) float64 {
	if T <= 0 || pSite <= 0 {
		return 0
	}
	if math.IsInf(T, 1) {
		return 1
	}
	h := 0.0
	for k := 1; k <= z.L; k++ {
		q := z.PMF(k)
		pObj := pSite * q
		h += pObj * T / (1 + pObj*T) * q
	}
	return h
}
