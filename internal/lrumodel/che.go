package lrumodel

import "math"

// This file implements Che's characteristic-time approximation of the
// LRU hit ratio (Che, Tung, Wang, "Hierarchical web caching systems",
// JSAC 2002) as a reference point for the paper's own model. Both take
// identical inputs; comparing them against the trace-driven simulator
// quantifies how much accuracy the paper's simpler Equation (2) gives up
// (see the model-comparison experiment).
//
// Under the independent reference model, Che approximates that an object
// with request probability p is present in an LRU cache of B slots iff
// it was requested within the last T_C time slots, where the
// characteristic time T_C solves
//
//	Σ_k 1 − (1 − p_k)^T_C = B,
//
// i.e. the expected number of distinct objects requested within T_C
// equals the cache size. The per-object hit ratio is then
// 1 − (1 − p_k)^T_C — structurally the paper's Equation (1) with T_C in
// place of the Equation (2) K.

// cheLaw plugs Che's approximation into the Predictor machinery as a
// selectable ModelKind: KForB memoizes the bisection per B, and the grid
// evaluation and its bound are eq1's, with T_C in place of K.
type cheLaw struct{ eq1Law }

func (cheLaw) charTime(p *Predictor, B int) float64 { return p.CheK(B) }

// CheK computes the characteristic time T_C for the predictor's merged
// object population and a cache of B slots. It returns +Inf when B
// covers every object with positive probability.
func (p *Predictor) CheK(B int) float64 {
	return p.occupancyTime(B, func(T float64) float64 {
		total := 0.0
		for j := range p.specs {
			if p.pops[j] == 0 {
				continue
			}
			for _, q := range p.zipfs[j].PMFs() {
				total += hitProb(p.pops[j]*q, T)
			}
		}
		return total
	})
}

// occupancyTime solves occupied(T) = B for the characteristic time T by
// bisection, where occupied is a law's expected number of distinct
// cached objects, increasing in T from 0 to the number of objects with
// positive request probability. It returns 0 for an empty cache and +Inf
// when B covers every such object.
func (p *Predictor) occupancyTime(B int, occupied func(T float64) float64) float64 {
	if B <= 0 {
		return 0
	}
	positive := 0
	for j := range p.specs {
		if p.pops[j] > 0 {
			positive += p.specs[j].Objects
		}
	}
	if B >= positive {
		return math.Inf(1)
	}
	lo, hi := 0.0, float64(B)
	for occupied(hi) < float64(B) {
		hi *= 2
		if hi > 1e15 {
			return math.Inf(1)
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-6*hi; iter++ {
		mid := (lo + hi) / 2
		if occupied(mid) < float64(B) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
