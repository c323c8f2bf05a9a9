package placement

import (
	"repro/internal/core"
	"repro/internal/lrumodel"
)

// The oracles: Figure 2 and the greedy-global baseline as a full O(n·m)
// argmax scan per iteration. They are the reference the byte-identity
// suites (TestLazyMatchesScan*, TestApproxZeroEpsilonByteIdentical*,
// TestExplainMatchesSteps) compare the heap against — the row-major
// strict-greater comparison below is the order benLess reproduces — and
// run nowhere else.

// hybridOracle runs hybridScan on a state whose predictors keep their
// own memos instead of sharing the heap's hit-ratio table, so agreement
// with Hybrid also shows that the shared table changes no float.
func hybridOracle(sys *core.System, cfg HybridConfig) (*Result, error) {
	st, err := newHybridState(sys, cfg, nil)
	if err != nil {
		return nil, err
	}
	st.shared = nil
	for i := range st.preds {
		st.preds[i] = mustModel(st.model, cfg.Specs, sys.Demand[i], cfg.AvgObjectBytes, sys.Capacity[i], nil)
		st.h[i] = st.preds[i].HitRatios(st.p.Free(i))
	}
	return hybridScan(st), nil
}

// hybridScan is the hybrid oracle's loop, Figure 2 taken literally:
// every iteration evaluates every candidate's benefit from the current
// state (hybridBenefit, every model value re-derived from the
// predictors) and takes the first maximum in (server, site) order.
// Evaluating afresh is the point: a maintained matrix's values would
// carry the rounding of its own update history, which decides exact
// ties (co-located servers, twin sites) arbitrarily.
func hybridScan(st *hybridState) *Result {
	sys, p, preds, h, visMass := st.sys, st.p, st.preds, st.h, st.visMass
	n, m, cfg := st.n, st.m, st.cfg
	res := &Result{Placement: p}
	hitFn := st.hitFn

	// Evaluation fans out at row granularity (see
	// HybridConfig.Parallelism): row i only reads preds[i], h, visMass
	// and the read-only placement, so rows never contend.
	ben := make([][]float64, n)
	for i := range ben {
		ben[i] = make([]float64, m)
	}
	visible := make([]bool, m)

	// Lines 6–25: main loop.
	for {
		fanOutRows(n, st.workers, func(i int) {
			for j := 0; j < m; j++ {
				if p.CanReplicate(i, j) {
					ben[i][j] = hybridBenefit(sys, p, preds, h, visMass, i, j) - updatePenalty(sys, cfg.UpdateRates, i, j)
				} else {
					ben[i][j] = 0
				}
			}
		})
		bestB := 0.0
		bestI, bestJ := -1, -1
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if ben[i][j] > bestB { // line 8
					bestB, bestI, bestJ = ben[i][j], i, j
				}
			}
		}
		if bestI < 0 { // no candidate with positive benefit
			break
		}
		// Lines 18–25: create the replica and update bookkeeping.
		mustReplicate(p, bestI, bestJ)
		visMass[bestI] -= preds[bestI].SitePopularity(bestJ)
		for k := 0; k < m; k++ {
			visible[k] = !p.Has(bestI, k)
		}
		copy(h[bestI], preds[bestI].HitRatiosCond(visible, p.Free(bestI)))
		step := Step{
			Server:        bestI,
			Site:          bestJ,
			Benefit:       bestB,
			PredictedCost: hybridObjective(p, hitFn, cfg.UpdateRates),
		}
		res.Steps = append(res.Steps, step)
		if cfg.Explain != nil {
			cfg.Explain(ExplainStep{
				Iter: len(res.Steps) - 1, Server: bestI, Site: bestJ,
				Benefit: bestB, PredictedCost: step.PredictedCost,
				Model: string(st.model),
			})
		}
	}
	res.PredictedCost = hybridObjective(p, hitFn, cfg.UpdateRates)
	return res
}

// hybridBenefit evaluates lines 9–17 of Figure 2 for candidate (i, j).
func hybridBenefit(sys *core.System, p *core.Placement, preds []*lrumodel.Predictor, h [][]float64, visMass []float64, i, j int) float64 {
	// Line 9: local benefit — the cache was already absorbing h of the
	// redirected requests.
	b := (1 - h[i][j]) * sys.Demand[i][j] * p.NearestCost(i, j)

	// Lines 10–13: cost change for the other cached sites. The cache
	// shrinks by o_j bytes, but site j's traffic also stops traversing
	// it, boosting everyone else's effective popularity.
	newCache := p.Free(i) - sys.SiteBytes[j]
	newMass := visMass[i] - preds[i].SitePopularity(j)
	for k := 0; k < sys.M(); k++ {
		if k == j || p.Has(i, k) {
			continue
		}
		hNew := preds[i].SiteHitRatioCond(k, newMass, newCache)
		if dh := h[i][k] - hNew; dh != 0 {
			b -= dh * sys.Demand[i][k] * p.NearestCost(i, k)
		}
	}

	// Lines 14–17: relative benefit for servers that would redirect to
	// the new, closer replica.
	for s := 0; s < sys.N(); s++ {
		if s == i || p.Has(s, j) {
			continue
		}
		if dc := p.NearestCost(s, j) - sys.CostServer[s][i]; dc > 0 {
			b += dc * (1 - h[s][j]) * sys.Demand[s][j]
		}
	}
	return b
}

// greedyScan is the greedy-global oracle: the literal "compare all
// server-site pairs each iteration" loop.
func greedyScan(sys *core.System, cfg GreedyConfig) *Result {
	updateRates := cfg.UpdateRates
	p := core.NewPlacement(sys)
	res := &Result{Placement: p}
	n, m := sys.N(), sys.M()
	workers := normWorkers(cfg.Parallelism, n)
	objective := func() float64 {
		c := p.Cost(core.ZeroHitRatio)
		if updateRates != nil {
			c += p.UpdateCost(updateRates)
		}
		return c
	}
	// Cached benefit matrix with exact invalidation: placing (i*, j*)
	// only changes SN entries of site j*, so only column j* needs
	// recomputation (greedyBenefit depends on the placement solely
	// through NearestCost(·, j) and Has(·, j)). Rows are independent
	// given the read-only placement, so the initial fill fans out.
	ben := make([][]float64, n)
	fanOutRows(n, workers, func(i int) {
		ben[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			ben[i][j] = greedyBenefit(sys, p, i, j) - updatePenalty(sys, updateRates, i, j)
		}
	})
	for {
		bestB := 0.0
		bestI, bestJ := -1, -1
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if ben[i][j] > bestB && p.CanReplicate(i, j) {
					bestB, bestI, bestJ = ben[i][j], i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		mustReplicate(p, bestI, bestJ)
		fanOutRows(n, workers, func(i int) {
			ben[i][bestJ] = greedyBenefit(sys, p, i, bestJ) - updatePenalty(sys, updateRates, i, bestJ)
		})
		cost := objective()
		res.Steps = append(res.Steps, Step{
			Server:        bestI,
			Site:          bestJ,
			Benefit:       bestB,
			PredictedCost: cost,
		})
		if cfg.Explain != nil {
			cfg.Explain(ExplainStep{
				Iter: len(res.Steps) - 1, Server: bestI, Site: bestJ,
				Benefit: bestB, PredictedCost: cost,
			})
		}
	}
	res.PredictedCost = objective()
	return res
}
