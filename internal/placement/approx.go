// The hybrid heap run, exact at eps == 0 and ε-approximate above it.
//
// The exact run pays two distinct model-evaluation bills. The larger
// one is the cold start: the initial benefit matrix fill costs n·m²
// model evaluations (every row's m×m shrink table) and dominates a
// large run's CPU outright — most of it spent on rows and cells that
// never come close to winning a step. The second is eager maintenance:
// after every replica creation the run fully re-evaluates the row of
// every server whose nearest-replica table improved and refills the
// chosen server's m×m shrink table.
// hybridHeapRun with eps > 0 defers both.
//
// Lazy cold start (prepareOptimistic): the matrix is seeded with
// OPTIMISTIC UPPER BOUNDS — the exact cell value with the shrink
// penalty replaced by a cheap lower bound built from K reference
// shrink slices per row (see prepareOptimistic for the monotonicity
// argument), at K·m model evaluations per row instead of m². Rows
// live their whole life in this seed regime:
//
//   - When a seed cell surfaces at the top of the heap, the engine
//     VERIFIES just that cell — filling its m-entry shrink slice — and
//     re-keys it at the exact value. Cells that never surface never
//     pay their slice; rows that never surface never even allocate
//     their m×m table.
//
//   - When a row wins a step (its own cache shrinks, invalidating its
//     bound and any verified slices), the engine RE-SLICES the row's
//     reference bounds at the new state — K·m evaluations where the
//     exact engine refills m² — resets its verified set, and restores
//     every seed to an exact-now upper bound. The row carries no
//     drift out of its own accept.
//
// In-loop deferral: the per-row re-evaluations triggered by other
// rows' events are deferred too, and each row instead carries a bound
// on how far its cached values can sit from the truth:
//
//   - SN event (server k's nearest replica of the placed site j* got
//     closer by ΔC): the only stale term in row k is the shrink
//     penalty's weight for site j*, which drops by at most
//     h_k[j*]·r_kj*·ΔC — an exact one-sided bound, so
//     rowDrift[k] += h_k[j*]·r_kj*·ΔC. (In the seed regime the
//     penalty lower-bound totals are re-weighted arithmetically at the
//     same moment, so the bounds themselves stay sound; the same
//     h·r·ΔC drift covers how far the STORED values — seeds and
//     verified cells alike — fall behind, since every slice drop dh
//     is ≤ h. Catching a seed-regime row up is then pure arithmetic:
//     re-tighten seeds, re-run verified cells against their slices.)
//
//   - Cache event (the chosen server i*'s cache shrank; its hit ratios
//     h[i*] are ALWAYS recomputed exactly): in the seed regime this is
//     the re-slice above — no drift at all. In the warm regime (an
//     Incremental repair run, which starts from exact tables) the m×m
//     refill is deferred instead: the stale table entries hNew_j(k)
//     shift by approximately the same amount as the base hit ratios
//     h[i*][k] they are conditioned against, so the row's benefit
//     error is proxied by Σ_k |Δh_k|·r_k·C(i*,SN_k) (which also covers
//     the exact local-term change, its k = j term) plus the removed
//     penalty weight of the placed site, scaled by driftSafety.
//     This proxy is a model-smoothness heuristic, not a theorem; the
//     safety factor and the ε-quality property tests
//     (TestApproxFinalCostWithinEpsilon) are what anchor it.
//
// Drift direction matters: an SN event can only RAISE row k's true
// benefits above their cached values, while a deferred cache event
// moves row i*'s both ways — so each row carries a total bound
// rowDrift (how far above cache the truth can sit) and a downward
// bound downDrift (how far below; deferred cache events only — seeds
// and verified cells are never above the truth, so seed-regime rows
// keep downDrift = 0 and every pop of an unverified seed verifies
// before the entry can be accepted).
//
// Acceptance rule at the heap pop: the popped entry e, matching its
// cell, is worth at least e.key − downDrift[row(e)]. Every OTHER
// candidate — including retired cells whose deferred value may have
// silently risen above zero — is worth at most
//
//	runnerUp = max(k₂, max over drifted rows i of rowMax[i] + rowDrift[i])
//
// where k₂ is the next heap key (covers all undrifted rows exactly)
// and rowMax[i] is the row's cached maximum, maintained by arithmetic
// alone (refreshed in the per-step fan-out, bumped on pushes). This
// per-row combination is the point: a global "k₂ + max drift" bound
// charges every pop for the worst row's drift even when that row's
// candidates are nowhere near the top, which burns the budget
// instantly and degenerates into the exact engine. When
// e.key − downDrift ≥ runnerUp the selection is provably exact and
// free — the issue's "skip re-evaluation when the gap to the
// second-best exceeds the maximum possible drift". Otherwise
// slack = runnerUp + downDrift[row(e)] − e.key is charged against the
// run's budget eps·approxBudgetFrac·C₀; when the budget cannot cover
// a selection, the engine catches up the dominant contributor (the
// runner-up row, or e's own row when its downward drift dominates),
// restoring it to the exact engine's values, and retries. Σ slack ≤
// eps·approxBudgetFrac·C₀ bounds the total benefit shortfall of the
// run and the final predicted cost lands within ε of the exact
// engine's (test-enforced for ε ∈ {1e-3, 1e-2}).
//
// When the heap drains with drift outstanding, a selective sweep
// catches up only the drifted rows whose bound admits a positive
// feasible candidate (max feasible cached value + rowDrift > 0);
// skipping the rest is exact, not approximate, and preserves the
// deferral's savings — a blanket catch-up would re-pay every deferred
// m×m refill at the finish line.
//
// eps == 0 allocates none of the drift machinery and takes none of its
// branches: the run is the scanning oracle's float-op stream — and hence
// its Result.Steps — byte for byte (test-enforced, oracle_test.go).
package placement

import (
	"fmt"
	"sort"
)

// driftSafety scales the cache-event drift proxy (see the package
// comment): the stale shrink-table entries are assumed to move no more
// than driftSafety× the exactly-known base hit-ratio shift.
const driftSafety = 2.0

// approxBudgetFrac scales Epsilon·C₀ down to the internal slack budget,
// leaving headroom between the worst-case charged slack and the
// ε·(exact final cost) bound the quality tests enforce (C₀, the
// starting objective, exceeds the final cost).
const approxBudgetFrac = 0.5

// evalBenOpt is the optimistic cell evaluation behind the lazy cold
// start: evalBenCached with the shrink penalty dropped. The penalty is
// provably non-negative while the row's own cache state is untouched —
// every shrink-conditioned hit ratio sits at or below its base value
// (the model's cache loss dominates the visible-mass relief; verified
// per entry across the scenario family) — so the result upper-bounds
// the exact value using arithmetic only, no model evaluations.
func (st *hybridState) evalBenOpt(i, j int) float64 {
	p := st.p
	if !p.CanReplicate(i, j) {
		return 0
	}
	sys, h := st.sys, st.h
	b := (1 - h[i][j]) * sys.Demand[i][j] * p.NearestCost(i, j)
	for s := 0; s < st.n; s++ {
		if s == i || p.Has(s, j) {
			continue
		}
		if dc := p.NearestCost(s, j) - sys.CostServer[s][i]; dc > 0 {
			b += dc * (1 - h[s][j]) * sys.Demand[s][j]
		}
	}
	return b - updatePenalty(sys, st.cfg.UpdateRates, i, j)
}

// optRefSlices is the number of reference shrink slices per row in the
// lazy cold start. More slices tighten the penalty lower bound (fewer
// cells ever surface) at K·m model evaluations per row; 4 already
// retires the overwhelming majority of cells without a fill.
const optRefSlices = 4

// evalBenOptTight is evalBenOpt minus the row's reference-slice
// penalty lower bound for site j — still an upper bound on the exact
// value, but close enough to it that cells whose true benefit has
// gone negative actually retire instead of haunting the heap.
func (st *hybridState) evalBenOptTight(i, j int) float64 {
	p := st.p
	if !p.CanReplicate(i, j) {
		return 0
	}
	q := st.optQ[j]
	pen := st.optPenTot[i][q] - st.optL[i][q*st.m+j]*st.sys.Demand[i][j]*p.NearestCost(i, j)
	return st.evalBenOpt(i, j) - pen
}

// prepareOptimistic is the approximate engine's cold start: it seeds
// the benefit matrix with tightened optimistic upper bounds and defers
// the m×m shrink-table fills — the dominant cost of a cold run —
// entirely; hybridHeapRun verifies individual cells (one m-entry
// slice each) as they reach the top of the heap. Cells that never
// compete never pay their slice, and rows that never compete never
// even allocate their table.
//
// The tightening: the shrink penalty's model term for cell (i, j) is
// dh(k, j) = h[i][k] − hNew(k | mass − pop_j, cache − o_j), which
// depends on j only through the two scalars (pop_j, o_j) and is
// monotone in both — deeper shrinks lose more, larger mass relief
// loses less. Evaluating one reference slice per o-size quantile, at
// the row's maximum site popularity, therefore lower-bounds dh for
// every site mapped to a reference at or below its own size, at K·m
// model evaluations per row instead of m·m. The weighted totals are
// maintained arithmetically as nearest-replica costs move, so the
// bound stays sound (and keeps tightening) for the run's whole life.
func (st *hybridState) prepareOptimistic() {
	n, m, sys := st.n, st.m, st.sys
	st.ben = make([][]float64, n)
	st.hShrink = make([][]float64, n) // rows allocated on first cell verification
	st.optInit = true

	K := optRefSlices
	if K > m {
		K = m
	}
	order := make([]int, m)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		return sys.SiteBytes[order[a]] < sys.SiteBytes[order[b]]
	})
	st.optRefO = make([]int64, K)
	for q := 0; q < K; q++ {
		st.optRefO[q] = sys.SiteBytes[order[q*m/K]]
	}
	st.optQ = make([]int, m)
	for j := 0; j < m; j++ {
		q := 0
		for t := 1; t < K; t++ {
			if st.optRefO[t] <= sys.SiteBytes[j] {
				q = t
			}
		}
		st.optQ[j] = q
	}
	st.optL = make([][]float64, n)
	st.optPenTot = make([][]float64, n)
	fanOutRows(n, st.workers, func(i int) {
		st.ben[i] = make([]float64, m)
		st.optSliceRow(i)
		for j := 0; j < m; j++ {
			st.ben[i][j] = st.evalBenOptTight(i, j)
		}
	})
}

// optSliceRow (re)computes row i's reference-slice penalty lower bound
// at the CURRENT placement state, at K·m model evaluations. Called per
// row by prepareOptimistic, and again by the approximate engine every
// time the row itself receives a replica — the bound reads the row's
// hit ratios, visible mass and free space, so a replica on the row
// invalidates it. Re-slicing is what lets a row stay in the seed
// regime for the whole run: the exact engine's per-step m×m refill of
// the chosen row is replaced by a K·m re-bound.
func (st *hybridState) optSliceRow(i int) {
	sys, p, m := st.sys, st.p, st.m
	K := len(st.optRefO)
	popMax := 0.0
	for j := 0; j < m; j++ {
		if v := st.preds[i].SitePopularity(j); v > popMax {
			popMax = v
		}
	}
	newMass := st.visMass[i] - popMax
	L := st.optL[i]
	if L == nil {
		L = make([]float64, K*m)
		st.optL[i] = L
	}
	tot := st.optPenTot[i]
	if tot == nil {
		tot = make([]float64, K)
		st.optPenTot[i] = tot
	}
	for q := 0; q < K; q++ {
		newCache := p.Free(i) - st.optRefO[q]
		t := 0.0
		for k := 0; k < m; k++ {
			if p.Has(i, k) {
				// The exact penalty sum skips replicated sites; counting
				// them here would overshoot the bound.
				L[q*m+k] = 0
				continue
			}
			// dh NOT clamped at zero: a negative drop (the mass relief
			// outweighing the reference shrink) must stay negative, or
			// the "lower bound" would overshoot a cell whose true
			// penalty term is negative and the seed would stop being an
			// upper bound.
			dh := st.h[i][k] - st.preds[i].SiteHitRatioCond(k, newMass, newCache)
			L[q*m+k] = dh
			t += dh * sys.Demand[i][k] * p.NearestCost(i, k)
		}
		tot[q] = t
	}
}

// hybridHeapRun is the heap engine behind Hybrid (exact for eps == 0,
// ε-approximate otherwise) and behind Incremental's warm repair. The
// caller prepares st.ben/st.hShrink (prepareCold, prepareOptimistic or
// a warm base) and, for warm runs, st.baseSteps. See the package
// comment for the drift invariant; the exact-mode mechanics are
// documented inline.
func hybridHeapRun(st *hybridState, eps float64) *Result {
	sys, p, preds, h, visMass := st.sys, st.p, st.preds, st.h, st.visMass
	n, m, cfg, workers := st.n, st.m, st.cfg, st.workers
	ben, hShrink := st.ben, st.hShrink
	res := &Result{Placement: p}
	if len(st.baseSteps) > 0 {
		res.Steps = append(res.Steps, st.baseSteps...)
	}

	heapKey := make([][]float64, n) // newest live entry per cell; 0 = none
	hp := benHeap{e: make([]benEntry, 0, n*m)}
	for i := 0; i < n; i++ {
		heapKey[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			if ben[i][j] > 0 {
				hp.push(benEntry{key: ben[i][j], i: int32(i), j: int32(j)})
				heapKey[i][j] = ben[i][j]
			}
		}
	}
	pushIfRaised := func(i, j int) {
		if v := ben[i][j]; v > 0 && v > heapKey[i][j] {
			hp.push(benEntry{key: v, i: int32(i), j: int32(j)})
			heapKey[i][j] = v
		}
	}

	// Per-iteration scratch, hoisted out of the loop. reeval marks the
	// rows fully re-evaluated this iteration: the improved set in exact
	// mode, empty in approximate mode (deferred into rowDrift).
	hOld := make([]float64, m)
	visible := make([]bool, m)
	reeval := make([]bool, n)

	// ε machinery, allocated only when a budget exists; every use is
	// behind an eps > 0 or driftRows > 0 guard, so the eps == 0 run is
	// the exact engine's op stream unchanged.
	var (
		budget, spent      float64
		rowDrift           []float64 // upper drift bound per row (SN + cache events)
		downDrift          []float64 // downward component (cache events only)
		rowMax             []float64 // upper bound on max_j ben[i][j]
		catchNeeded        []bool
		driftRows          int    // rows with rowDrift > 0
		needFill           []bool // row's shrink table is stale (deferred cache event)
		oldCol             []float64
		exactCell          [][]bool // lazy cold start: per-cell "shrink slice filled, value exact" (nil unless optInit)
		deferred, caughtUp int
		driftAccepts       int
		verifiedN          int
	)
	if st.optInit {
		exactCell = make([][]bool, n)
	}
	if eps > 0 {
		budget = eps * approxBudgetFrac * hybridObjective(p, st.hitFn, cfg.UpdateRates)
		rowDrift = make([]float64, n)
		downDrift = make([]float64, n)
		rowMax = make([]float64, n)
		catchNeeded = make([]bool, n)
		needFill = make([]bool, n)
		oldCol = make([]float64, n)
		for i := 0; i < n; i++ {
			mx := 0.0
			for _, v := range ben[i] {
				if v > mx {
					mx = v
				}
			}
			rowMax[i] = mx
		}
	}
	refreshRowMax := func(i int) {
		mx := 0.0
		for _, v := range ben[i] {
			if v > mx {
				mx = v
			}
		}
		rowMax[i] = mx
	}
	// refreshSeedRow restores a lazy-cold-start row to its current
	// bound: verified cells re-run the exact arithmetic against their
	// filled slice, seeds re-tighten against the row's live penalty
	// totals. No model evaluations either way, so clearing a seed row's
	// drift is free of the cost the deferral saved.
	refreshSeedRow := func(i int) {
		ec := exactCell[i]
		for j := 0; j < m; j++ {
			if ec != nil && ec[j] {
				ben[i][j] = st.evalBenCached(i, j, hShrink[i], false)
			} else {
				ben[i][j] = st.evalBenOptTight(i, j)
			}
		}
	}
	catchUpRow := func(i int) {
		if exactCell != nil {
			refreshSeedRow(i)
		} else {
			for j := 0; j < m; j++ {
				ben[i][j] = st.evalBenCached(i, j, hShrink[i], needFill[i])
			}
		}
		needFill[i] = false
		if rowDrift[i] > 0 {
			driftRows--
		}
		rowDrift[i], downDrift[i] = 0, 0
		refreshRowMax(i)
		for j := 0; j < m; j++ {
			pushIfRaised(i, j)
		}
		caughtUp++
	}

	// Engine work counters since the last emitted step; plain ints on
	// the existing paths, so a nil Explain costs nothing.
	var pops, stale, superseded, infeasible int
	for {
		if hp.len() == 0 {
			if driftRows == 0 {
				break
			}
			// Drained with outstanding drift: a deferred row may hold a
			// candidate whose true value rose above zero while its cached
			// value sat retired. Catch up exactly the rows whose bound
			// admits a positive feasible candidate; the rest provably
			// hold nothing (skipping them is exact) and keep their
			// deferred refills unpaid. Rows are independent, so the
			// model refills fan out.
			any := false
			for i := 0; i < n; i++ {
				if rowDrift[i] == 0 {
					continue
				}
				for j := 0; j < m; j++ {
					if ben[i][j]+rowDrift[i] > 0 && p.CanReplicate(i, j) {
						catchNeeded[i] = true
						any = true
						break
					}
				}
			}
			if !any {
				break
			}
			fanOutRows(n, workers, func(i int) {
				if !catchNeeded[i] {
					return
				}
				if exactCell != nil {
					refreshSeedRow(i)
				} else {
					for j := 0; j < m; j++ {
						ben[i][j] = st.evalBenCached(i, j, hShrink[i], needFill[i])
					}
				}
			})
			for i := 0; i < n; i++ {
				if !catchNeeded[i] {
					continue
				}
				catchNeeded[i] = false
				needFill[i] = false
				rowDrift[i], downDrift[i] = 0, 0
				driftRows--
				caughtUp++
				refreshRowMax(i)
				for j := 0; j < m; j++ {
					pushIfRaised(i, j)
				}
			}
			continue
		}
		e := hp.pop()
		pops++
		bestI, bestJ := int(e.i), int(e.j)
		if e.key != heapKey[bestI][bestJ] {
			superseded++
			continue // superseded by a newer entry for the same cell
		}
		if v := ben[bestI][bestJ]; v != e.key {
			// Decayed since pushed: re-key at the current value, or
			// retire the cell if it dropped out.
			stale++
			if v > 0 {
				hp.push(benEntry{key: v, i: e.i, j: e.j})
				heapKey[bestI][bestJ] = v
			} else {
				heapKey[bestI][bestJ] = 0
			}
			continue
		}
		if !p.CanReplicate(bestI, bestJ) {
			// Exact mode: unreachable while the eager maintenance zeroes
			// infeasible cells, kept as a safeguard. Approximate mode:
			// reached for cells of deferred rows that went infeasible
			// when their server's free space shrank (infeasibility is
			// permanent, so retiring the cell is exact).
			infeasible++
			heapKey[bestI][bestJ] = 0
			continue
		}
		if exactCell != nil {
			ec := exactCell[bestI]
			if ec == nil || !ec[bestJ] {
				// An optimistic seed reached the top: verify just this
				// cell — fill its m-entry shrink slice and re-key at the
				// exact value. Cells that never surface never pay their
				// slice, and rows that never surface never even allocate
				// their table.
				if hShrink[bestI] == nil {
					hShrink[bestI] = make([]float64, m*m)
				}
				if ec == nil {
					ec = make([]bool, m)
					exactCell[bestI] = ec
				}
				v := st.evalBenCached(bestI, bestJ, hShrink[bestI], true)
				ec[bestJ] = true
				verifiedN++
				ben[bestI][bestJ] = v
				if v > 0 {
					hp.push(benEntry{key: v, i: e.i, j: e.j})
					heapKey[bestI][bestJ] = v
				} else {
					heapKey[bestI][bestJ] = 0
				}
				continue
			}
			// Verified cell: exact-now value, falls through to the drift
			// gate like any cached candidate (its slice stays valid —
			// the row's own cache state is untouched until it receives a
			// replica, which resets the row's verified set below).
		}
		if driftRows > 0 {
			// Drift gate (see package comment): e is worth at least
			// e.key − downDrift[bestI]; the best alternative at most
			// runnerUp — the next heap key for undrifted rows, or a
			// drifted row's cached max plus its drift bound.
			k2 := 0.0
			if hp.len() > 0 {
				k2 = hp.e[0].key
			}
			runnerUp, runnerRow := k2, -1
			for i := 0; i < n; i++ {
				if i == bestI || rowDrift[i] == 0 {
					continue
				}
				if s := rowMax[i] + rowDrift[i]; s > runnerUp {
					runnerUp, runnerRow = s, i
				}
			}
			if slack := runnerUp + downDrift[bestI] - e.key; slack > 0 {
				if spent+slack <= budget {
					spent += slack
					driftAccepts++
				} else {
					// Budget exhausted: restore the dominant contributor
					// to exactness and retry the selection.
					r := runnerRow
					if r < 0 || downDrift[bestI] >= runnerUp-k2 {
						r = bestI
					}
					catchUpRow(r)
					hp.push(e) // still the cell's newest entry unless the catch-up superseded it
					continue
				}
			}
		}
		bestB := e.key

		// Lines 18–25, identical to the oracle's. h[bestI] is
		// recomputed exactly in every mode — the deferral never touches
		// the hit-ratio state, only the benefit matrix.
		copy(hOld, h[bestI])
		if eps > 0 {
			for k := 0; k < n; k++ {
				oldCol[k] = p.NearestCost(k, bestJ)
			}
		}
		improved, err := p.ReplicateTracked(bestI, bestJ)
		if err != nil {
			panic(fmt.Sprintf("placement: internal error: %v", err))
		}
		visMass[bestI] -= preds[bestI].SitePopularity(bestJ)
		for k := 0; k < m; k++ {
			visible[k] = !p.Has(bestI, k)
		}
		copy(h[bestI], preds[bestI].HitRatiosCond(visible, p.Free(bestI)))

		for i := range reeval {
			reeval[i] = false
		}
		if eps == 0 {
			for _, k := range improved {
				reeval[k] = true
			}
		} else {
			// Defer every row re-evaluation, accumulating drift bounds.
			// SN events only ever raise a row's true benefits above its
			// cache, so they contribute to rowDrift alone.
			for _, k := range improved {
				if k == bestI {
					continue
				}
				// Seed-regime row: the penalty lower-bound total
				// re-weights the placed site's term to the new cost, so
				// the tightened bound itself stays sound; the gap the
				// stored values fall behind it (and behind the truth, for
				// verified cells) is covered by the h·r·ΔC drift below —
				// dh ≤ h bounds both.
				if exactCell != nil {
					w := sys.Demand[k][bestJ] * (p.NearestCost(k, bestJ) - oldCol[k]) // ≤ 0
					for q := range st.optPenTot[k] {
						st.optPenTot[k][q] += st.optL[k][q*m+bestJ] * w
					}
				}
				if d := h[k][bestJ] * sys.Demand[k][bestJ] * (oldCol[k] - p.NearestCost(k, bestJ)); d > 0 {
					if rowDrift[k] == 0 {
						driftRows++
					}
					rowDrift[k] += d
				}
				deferred++
			}
			if exactCell != nil {
				// Cache event, seed regime: the chosen row's own cache
				// shrank, so its reference-slice bound and any verified
				// slices reference the old state. Re-slicing at the new
				// state — K·m model evaluations, against the m·m refill
				// the exact engine pays — restores every seed to an
				// exact-now upper bound, so the row carries no drift or
				// stale table out of its own accept.
				st.optSliceRow(bestI)
				if ec := exactCell[bestI]; ec != nil {
					for j := range ec {
						ec[j] = false
					}
				}
				for j := 0; j < m; j++ {
					ben[bestI][j] = st.evalBenOptTight(bestI, j)
				}
				if rowDrift[bestI] > 0 {
					driftRows--
				}
				rowDrift[bestI], downDrift[bestI] = 0, 0
				refreshRowMax(bestI)
				for j := 0; j < m; j++ {
					pushIfRaised(bestI, j)
				}
			} else {
				// Cache event on bestI: exact |Δh| shift plus the placed
				// site's removed penalty weight, scaled by the safety
				// factor (the proxy for how far the stale shrink table
				// sits from a refill). The shift can move benefits either
				// way, so it lands on both the upper and the downward
				// bound.
				d := hOld[bestJ] * sys.Demand[bestI][bestJ] * oldCol[bestI]
				for k := 0; k < m; k++ {
					if p.Has(bestI, k) {
						continue
					}
					dh := hOld[k] - h[bestI][k]
					if dh < 0 {
						dh = -dh
					}
					if dh != 0 {
						d += dh * sys.Demand[bestI][k] * p.NearestCost(bestI, k)
					}
				}
				if rowDrift[bestI] == 0 {
					driftRows++
				}
				rowDrift[bestI] += driftSafety * d
				downDrift[bestI] += driftSafety * d
				needFill[bestI] = true
				deferred++
			}
		}
		for j := 0; j < m; j++ {
			if j == bestJ || p.Has(bestI, j) {
				continue
			}
			dh := hOld[j] - h[bestI][j]
			if dh == 0 {
				continue
			}
			snCost := p.NearestCost(bestI, j)
			w := dh * sys.Demand[bestI][j]
			for i := 0; i < n; i++ {
				if i == bestI || reeval[i] {
					continue
				}
				if dc := snCost - sys.CostServer[bestI][i]; dc > 0 {
					ben[i][j] += dc * w
					pushIfRaised(i, j)
				}
			}
		}
		// Model re-evaluations fan out across rows: re-evaluated rows in
		// full, everyone else only the bestJ column cell. Only bestI's
		// own cache state changed, so only its shrink cache refills; the
		// other rows re-run their benefit chains against cached model
		// values. (In approximate mode the column refresh of a
		// needFill row reads its stale table — the error is covered by
		// the row's drift bound.)
		fanOutRows(n, workers, func(i int) {
			if reeval[i] {
				fill := i == bestI
				for j := 0; j < m; j++ {
					ben[i][j] = st.evalBenCached(i, j, hShrink[i], fill)
				}
			} else if exactCell != nil {
				// Seed-regime row: refresh the improved column's cell
				// against the verified slice when it has one, or keep the
				// optimistic bound current instead of reading a shrink
				// table that was never built.
				if ec := exactCell[i]; ec != nil && ec[bestJ] {
					ben[i][bestJ] = st.evalBenCached(i, bestJ, hShrink[i], false)
				} else {
					ben[i][bestJ] = st.evalBenOptTight(i, bestJ)
				}
			} else {
				ben[i][bestJ] = st.evalBenCached(i, bestJ, hShrink[i], false)
			}
			if eps > 0 {
				// Keep the drift gate's per-row cached maximum current;
				// pure arithmetic, so the deferral saves model evals
				// without loosening the runner-up bound over time.
				refreshRowMax(i)
			}
		})
		// Heap pushes stay out of the parallel section.
		for i := 0; i < n; i++ {
			if reeval[i] {
				for j := 0; j < m; j++ {
					pushIfRaised(i, j)
				}
			} else {
				pushIfRaised(i, bestJ)
			}
		}
		// Lazy deletion only ever adds entries; rebuild if the garbage
		// outgrows the live set (the argmax is unchanged by a rebuild).
		if hp.len() > 4*n*m {
			hp.e = hp.e[:0]
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					heapKey[i][j] = 0
					if ben[i][j] > 0 {
						hp.push(benEntry{key: ben[i][j], i: int32(i), j: int32(j)})
						heapKey[i][j] = ben[i][j]
					}
				}
			}
		}
		step := Step{
			Server:        bestI,
			Site:          bestJ,
			Benefit:       bestB,
			PredictedCost: hybridObjective(p, st.hitFn, cfg.UpdateRates),
		}
		res.Steps = append(res.Steps, step)
		if cfg.Observer != nil {
			cfg.Observer(step)
		}
		if cfg.Explain != nil {
			used := 0.0
			if budget > 0 {
				used = spent / budget
			}
			cfg.Explain(ExplainStep{
				Iter: len(res.Steps) - 1, Server: bestI, Site: bestJ,
				Benefit: bestB, PredictedCost: step.PredictedCost,
				HeapPops: pops, StaleReevals: stale,
				Superseded: superseded, Infeasible: infeasible,
				Engine: st.engineLabel, Model: string(st.model),
				RowsDeferred: deferred, RowsCaughtUp: caughtUp,
				CellsVerified: verifiedN,
				DriftAccepts:  driftAccepts, DriftBudgetUsed: used,
			})
		}
		pops, stale, superseded, infeasible = 0, 0, 0, 0
		deferred, caughtUp, driftAccepts, verifiedN = 0, 0, 0, 0
	}
	// Leave the shrink caches consistent with the final placement when
	// a WarmState will be captured: rows with a deferred cache event
	// still hold pre-event tables.
	if st.captureWarm && eps > 0 {
		fanOutRows(n, workers, func(i int) {
			if hShrink[i] == nil {
				hShrink[i] = make([]float64, st.m*st.m)
			}
			if needFill[i] || exactCell != nil {
				for j := 0; j < m; j++ {
					ben[i][j] = st.evalBenCached(i, j, hShrink[i], true)
				}
			}
		})
		for i := range needFill {
			needFill[i] = false
		}
	}
	res.PredictedCost = hybridObjective(p, st.hitFn, cfg.UpdateRates)
	return res
}
