// The hybrid heap run: the exact Figure 2 greedy over lazily verified
// upper bounds.
//
// A heap run's dominant bill is model evaluation. Filling the benefit
// matrix from full tables costs n·m² evaluations (every row's m×m
// shrink table) and would dominate a large run's CPU outright — most of
// it spent on rows and cells that never come close to winning a step.
// No run pays it: Hybrid's cold solve and Incremental's warm repair
// alike start the heap from seeds and fill a cell's slice only when the
// cell reaches the top.
//
// The seeds (prepareOptimistic) are OPTIMISTIC UPPER BOUNDS — the exact
// cell value with the shrink penalty replaced by a cheap lower bound
// built from K reference shrink slices per row (see prepareOptimistic
// for the monotonicity argument), at K·m evaluations per row instead of
// m², each one the model's Jensen upper bound
// (lrumodel.SiteHitRatioCondUpper, ~30 terms) rather than an O(L)
// Equation (1) sum. A seed is never accepted directly, so the bound
// costs no accuracy. Each cell moves through three states (cellSeed →
// cellBounded → cellVerified):
//
//   - When a seed surfaces at the top of the heap, the engine BOUNDS
//     just that cell: it fills the cell's m-entry shrink slice from the
//     Jensen bound at the cell's own point (visible mass − p_j, free
//     space − o_j, where verification would evaluate the model) and
//     re-keys the cell at the value that slice gives. The chain stays
//     sound: every entry U ≥ the model's hNew, so each drop h − U is at
//     most the exact one, the penalty a lower bound and the value an
//     upper bound. It is also tight: U sits within ~1e-3 (relative) of
//     the model at the very point verification reads, where a seed's
//     reference slice can sit a whole site size and popularity away.
//
//   - When a bounded cell surfaces again, the engine VERIFIES it: the
//     slice is refilled from the model — one batch, its Equation (1)
//     misses fanned out over the workers — and the cell re-keyed at its
//     exact value. Most bounded cells never surface again, so a solve
//     verifies about one cell per step. Cells that never surface never
//     pay a slice; rows that never surface never even allocate their
//     m×m table.
//
//   - When a row wins a step (its own cache shrinks, invalidating its
//     reference bounds and every bounded or verified slice), the engine
//     RE-SLICES the row's reference bounds at the new state — K·m bound
//     evaluations where a filled table refills m² — turns every cell
//     back into a seed, and re-evaluates the row.
//
//   - When another row's nearest replica of the placed site moves
//     closer, the row's penalty lower-bound totals are re-weighted
//     arithmetically and the row is re-evaluated (bounded and verified
//     cells against their slices, seeds against the re-weighted bound),
//     still without a model evaluation. A slice reads only its own row's
//     state, so it stays valid, and a bounded value sits
//     Σ_k (U_k − hNew_k)·r_k·C(i, SN_k) ≥ 0 above the exact one at any
//     nearest-replica costs and any demand weights: re-run, it still
//     bounds its cell. The same holds for the reference slices, which is
//     why a warm repair may re-weight a clean row's totals to the new
//     demand (incremental.go).
//
// The run selects by the value a candidate has NOW, as the oracle's
// literal scan does: a verified cell never saw the arithmetic updates an
// eagerly maintained cell carries, so stored values can differ from a
// fresh evaluation — and from each other — by rounding. screenTies
// re-evaluates every candidate within a small window of the winner,
// verifying any that is not yet, so exact ties (co-located servers,
// twin sites) break in (server, site) order by exact values, and
// Step.Benefit is the fresh value. The run selects the scanning oracle's
// steps and reports its Result.Steps byte for byte (test-enforced,
// oracle_test.go, and fuzzed, FuzzHybridMatchesOracle).
package placement

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/lrumodel"
)

// exactTieWindow scales benefitScale to the exact run's near-tie window
// (see screenTies in hybridHeapRun). A stored benefit sits within a few
// ulps of that scale per arithmetic update from the value evaluated
// now, so even millions of updates stay far inside the window, while
// distinct greedy candidates almost never fall in it.
const exactTieWindow = 1e-9

// benefitScale bounds every term a benefit sums, from placement p on:
// the local, shrink-penalty and remote terms are each some r·C(i, SN)
// scaled by a factor in [−1, 1], so the no-cache read cost bounds their
// sums (nearest-replica costs only fall), and each site's update
// penalty is at most its rate times its farthest origin.
func benefitScale(p *core.Placement, updateRates []float64) float64 {
	s := p.Cost(core.ZeroHitRatio)
	sys := p.System()
	for j, u := range updateRates {
		far := 0.0
		for i := range sys.CostOrigin {
			far = math.Max(far, sys.CostOrigin[i][j])
		}
		s += u * far
	}
	return s
}

// evalBenOpt is evalBenCached with the shrink penalty dropped: the
// local and remote terms, arithmetic only, no model evaluations. It is
// not a bound by itself — the penalty turns negative where the
// visible-mass relief outweighs the cache loss — so the seeds subtract
// a lower bound of the penalty instead (evalBenOptTight).
func (st *hybridState) evalBenOpt(i, j int) float64 {
	p := st.p
	if !p.CanReplicate(i, j) {
		return 0
	}
	sys := st.sys
	b := (1 - st.h[i][j]) * sys.Demand[i][j] * p.NearestCost(i, j)
	return st.remoteBenefit(b, i, j) - updatePenalty(sys, st.cfg.UpdateRates, i, j)
}

// remoteBenefit returns b plus cell (i, j)'s remote benefit, lines 14–17
// of Figure 2: every other server s that does not replicate j and would
// fetch it more cheaply from i gains (C(s, SN_j^(s)) − C(s, i)) ·
// (1 − h_j^(s)) · r_j^(s). It reads the column-major copies (syncCols),
// so a cell's n terms are four sequential runs rather than four
// row-major tables read down a column; the sum is the row-major loop's,
// term for term and in the same order. A replicating s reads −Inf, so
// its cost difference is never positive and it drops out, as the
// row-major loop's skip drops it.
func (st *hybridState) remoteBenefit(b float64, i, j int) float64 {
	n := st.n
	nc := st.colNC[j*n : (j+1)*n]
	miss := st.colMiss[j*n : (j+1)*n]
	dem := st.colDem[j*n : (j+1)*n]
	cost := st.costTo[i*n : (i+1)*n]
	for s, c := range nc {
		if s == i {
			continue
		}
		if dc := c - cost[s]; dc > 0 {
			b += dc * miss[s] * dem[s]
		}
	}
	return b
}

// syncCols builds the remote term's column-major copies from the live
// demand, hit ratios, placement and costs.
func (st *hybridState) syncCols() {
	n, m, sys := st.n, st.m, st.sys
	if len(st.colNC) != n*m {
		st.colNC = make([]float64, n*m)
		st.colMiss = make([]float64, n*m)
		st.colDem = make([]float64, n*m)
		st.costTo = make([]float64, n*n)
	}
	for s := 0; s < n; s++ {
		for j := 0; j < m; j++ {
			st.colDem[j*n+s] = sys.Demand[s][j]
		}
		for i := 0; i < n; i++ {
			st.costTo[i*n+s] = sys.CostServer[s][i]
		}
		st.syncMissRow(s)
	}
	for j := 0; j < m; j++ {
		st.syncNCCol(j)
	}
}

// syncNCCol refreshes column j of the nearest-cost copy after a replica
// of site j was created.
func (st *hybridState) syncNCCol(j int) {
	col := st.colNC[j*st.n : (j+1)*st.n]
	for s := range col {
		if st.p.Has(s, j) {
			col[s] = math.Inf(-1)
		} else {
			col[s] = st.p.NearestCost(s, j)
		}
	}
}

// syncMissRow refreshes row i's entries of the miss-ratio copy after its
// hit ratios changed.
func (st *hybridState) syncMissRow(i int) {
	for j, h := range st.h[i] {
		st.colMiss[j*st.n+i] = 1 - h
	}
}

// The cells of a heap run move one way through three states, and back
// to cellSeed only when their row wins a step.
const (
	cellSeed     uint8 = iota // ben holds the seed (evalBenOptTight)
	cellBounded               // the slice holds Jensen bounds; ben bounds the cell
	cellVerified              // the slice holds the model's values; ben is exact
)

// cellState is cell (i, j)'s state; every cell of a row that never
// surfaced is a seed.
func (st *hybridState) cellState(i, j int) uint8 {
	if st.cells[i] == nil {
		return cellSeed
	}
	return st.cells[i][j]
}

// optRefSlices is the number of reference shrink slices per row. More
// slices tighten the penalty lower bound (fewer cells ever surface) at
// K·m model evaluations per row; 4 already retires the overwhelming
// majority of cells without a fill.
const optRefSlices = 4

// evalBenOptTight is the seed: evalBenOpt minus the row's
// reference-slice penalty lower bound for site j — an upper bound on
// the exact value (TestOptimisticSeedsBoundExactCells checks it under
// every model), close enough to it that cells whose true benefit has
// gone negative actually retire instead of haunting the heap. The
// slices read the model through SiteHitRatioCondUpper, a Jensen step
// over blocks of Zipf ranks: 1 − (1−x)^K is concave in x for K ≥ 1
// (below that the LRU laws return their exact value) and xT/(1+xT) for
// every T, so the reference hit ratio can only come out high, the drop
// low, and the seed high — by ~1e-3 of the hit ratio, which barely
// loosens it.
func (st *hybridState) evalBenOptTight(i, j int) float64 {
	p := st.p
	if !p.CanReplicate(i, j) {
		return 0
	}
	q := st.optQ[j]
	pen := st.optPenTot[i][q] - st.optL[i][q*st.m+j]*st.sys.Demand[i][j]*p.NearestCost(i, j)
	return st.evalBenOpt(i, j) - pen
}

// prepareOptimistic is the cold start of every heap run: it seeds the
// benefit matrix with tightened optimistic upper bounds and defers the
// m×m shrink-table fills — the dominant cost of a run — entirely;
// hybridHeapRun bounds, then verifies, individual cells (one m-entry
// slice each) as they reach the top of the heap. Cells that never
// compete never pay their slice, and rows that never compete never even
// allocate their table.
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
// The monotonicity is the model's: every kind's characteristic time is
// non-decreasing in the cache size (lrumodel's
// TestKMonotoneInBEveryModel), and FuzzHybridMatchesOracle reaches the
// nearly-everything-fits corner where that is easiest to lose.
//
// The slices need not even evaluate the model. Each reads
// U = SiteHitRatioCondUpper at the reference point, ~30 terms where
// Equation (1) has L, and the chain stays sound:
//
//   - U ≥ the model's hNew at the reference point (lrumodel's Jensen
//     bound, TestSiteHitUpperBound);
//   - so each slice entry h − U ≤ the model's reference drop ≤ the
//     cell's own drop dh(k, j);
//   - so the penalty stays a lower bound and the seed an upper bound.
//
// The cells that surface are bounded the same way at their own point,
// and verified with the solve's own model if they surface again, so the
// bounds' slack costs verifications, never exactness.
func (st *hybridState) prepareOptimistic() {
	n, m, sys := st.n, st.m, st.sys
	st.syncCols()
	st.ben = make([][]float64, n)
	st.hShrink = make([][]float64, n) // rows allocated when their first cell surfaces
	st.cells = make([][]uint8, n)

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

// optSliceRow (re)computes row i's reference slices at the CURRENT
// placement state, at K·m bound evaluations of ~30 terms each (no
// Equation (1) sum, no memo entry; the K bounds of one site share their
// logarithms), and their penalty totals. Called
// per row by prepareOptimistic, by the heap run every time the row
// itself receives a replica (seedCacheEvent) and by a warm repair that
// rebuilt the row's model — the bound reads the row's hit ratios,
// visible mass and free space, so any of the three invalidates it.
// Re-slicing is what lets a row stay in the seed regime for the whole
// run: a filled table's per-step m×m refill of the chosen row is
// replaced by a K·m re-bound.
func (st *hybridState) optSliceRow(i int) {
	p, m := st.p, st.m
	K := len(st.optRefO)
	popMax := 0.0
	for j := 0; j < m; j++ {
		if v := st.preds[i].SitePopularity(j); v > popMax {
			popMax = v
		}
	}
	newMass := st.visMass[i] - popMax
	if newMass <= 0 {
		// The model reads a non-positive visible mass as "no traffic"
		// (hit ratio 0), a cliff that would break the monotonicity the
		// bound rests on. Its limit from above — every effective
		// popularity clamped to 1, the largest hit ratio any shrink can
		// leave — is the sound reference.
		newMass = math.SmallestNonzeroFloat64
	}
	L := st.optL[i]
	if L == nil {
		L = make([]float64, K*m)
		st.optL[i] = L
		st.optPenTot[i] = make([]float64, K)
	}
	// A site's K reference points share its visible mass, so one batch
	// bounds them all and the model takes each block's logarithm once.
	var newCache [optRefSlices]int64
	var upper [optRefSlices]float64
	for q := 0; q < K; q++ {
		newCache[q] = p.Free(i) - st.optRefO[q]
	}
	for k := 0; k < m; k++ {
		if p.Has(i, k) {
			// The exact penalty sum skips replicated sites; counting
			// them here would overshoot the bound.
			for q := 0; q < K; q++ {
				L[q*m+k] = 0
			}
			continue
		}
		// dh NOT clamped at zero: a negative drop (the mass relief
		// outweighing the reference shrink) must stay negative, or the
		// "lower bound" would overshoot a cell whose true penalty term
		// is negative and the seed would stop being an upper bound. The
		// reference hit ratio is the model's cheap upper bound, which
		// only lowers dh further.
		st.preds[i].SiteHitRatioCondUpperSizes(k, newMass, newCache[:K], upper[:K])
		for q := 0; q < K; q++ {
			L[q*m+k] = st.h[i][k] - upper[q]
		}
	}
	st.optReweightRow(i)
}

// optReweightRow recomputes row i's penalty lower-bound totals from its
// reference slices against the live demand and nearest-replica costs:
// arithmetic only. Every slice entry lower-bounds its drop whatever the
// weights, so the totals stay lower bounds under any non-negative
// demand — a warm repair re-weights a clean row to the new round's
// demand this way.
func (st *hybridState) optReweightRow(i int) {
	p, m, L, d := st.p, st.m, st.optL[i], st.sys.Demand[i]
	for q := range st.optPenTot[i] {
		t := 0.0
		for k := 0; k < m; k++ {
			if !p.Has(i, k) {
				t += L[q*m+k] * d[k] * p.NearestCost(i, k)
			}
		}
		st.optPenTot[i][q] = t
	}
}

// seedCacheEvent is the answer to row i receiving a replica: its own
// cache shrank, so its reference slices and any bounded or verified
// slices reference the old state. Re-slicing at the new state — K·m
// bound evaluations, against the m·m refill of a filled table — and
// clearing the cell states makes every cell of the row a seed again;
// the caller re-evaluates the row.
func (st *hybridState) seedCacheEvent(i int) {
	st.optSliceRow(i)
	clear(st.cells[i])
}

// seedSNEvent re-weights row k's penalty lower-bound totals after its
// nearest replica of site j moved closer (from oldCost to the live
// NearestCost): the placed site's term drops with its cost, so the
// tightened bound stays sound without a model evaluation.
func (st *hybridState) seedSNEvent(k, j int, oldCost float64) {
	w := st.sys.Demand[k][j] * (st.p.NearestCost(k, j) - oldCost) // ≤ 0
	for q := range st.optPenTot[k] {
		st.optPenTot[k][q] += st.optL[k][q*st.m+j] * w
	}
}

// refreshCell restores cell (i, j) to its current value without a model
// evaluation: a bounded or verified cell re-runs its arithmetic against
// its slice, a seed re-tightens against the row's live penalty totals.
func (st *hybridState) refreshCell(i, j int) {
	if st.cellState(i, j) == cellSeed {
		st.ben[i][j] = st.evalBenOptTight(i, j)
	} else {
		st.ben[i][j] = st.evalBenCached(i, j)
	}
}

// refreshRow is refreshCell over row i.
func (st *hybridState) refreshRow(i int) {
	for j := 0; j < st.m; j++ {
		st.refreshCell(i, j)
	}
}

// hybridHeapRun is the heap engine behind Hybrid and Incremental. The
// caller seeds st (prepareOptimistic, or a warm repair of a previous
// run's state) and, for warm runs, sets st.baseSteps.
func hybridHeapRun(st *hybridState) *Result {
	sys, p, preds, h, visMass := st.sys, st.p, st.preds, st.h, st.visMass
	n, m, cfg, workers := st.n, st.m, st.cfg, st.workers
	ben, hShrink, cells := st.ben, st.hShrink, st.cells
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
	// rows re-evaluated in full this iteration: the chosen row and the
	// improved set. oldCol is the placed site's nearest-replica column
	// before the step.
	hOld := make([]float64, m)
	reeval := make([]bool, n)
	oldCol := make([]float64, n)

	// fan runs a batch's model misses across the workers; the heap run
	// calls it only outside its own row fan-outs.
	var fan lrumodel.Fan
	if workers > 1 {
		fan = func(k int, f func(x int)) { fanOutRows(k, workers, f) }
	}

	// settle fills seed or bounded cell (i, j)'s m-entry shrink slice —
	// from the Jensen bound (to cellBounded) or the model (to
	// cellVerified) — and stores the value the slice gives. Cells that
	// never surface never pay a slice, and rows that never surface never
	// even allocate their table.
	var verifiedN, boundedN int
	settle := func(i, j int, to uint8) float64 {
		if hShrink[i] == nil {
			hShrink[i] = make([]float64, m*m)
			cells[i] = make([]uint8, m)
		}
		if p.CanReplicate(i, j) {
			st.fillSlice(i, j, to == cellVerified, fan)
		}
		if cells[i][j] = to; to == cellVerified {
			verifiedN++
		} else {
			boundedN++
		}
		ben[i][j] = st.evalBenCached(i, j)
		return ben[i][j]
	}

	// Engine work counters since the last emitted step; plain ints on
	// the existing paths, so a nil Explain costs nothing.
	var pops, stale, superseded, infeasible int

	// The run selects the first maximum, in (server, site) order, of the
	// candidates' values evaluated now — the oracle's literal scan. A
	// stored value carries the rounding of its arithmetic updates and a
	// seed bounds its cell only to a few ulps, so the stored order can
	// break a near tie the other way, and a cell whose stored value
	// rounded to ≤ 0 sits outside the heap although its value now may be
	// positive dust. tieWin covers both.
	tieWin := exactTieWindow * benefitScale(p, cfg.UpdateRates)
	// fresh evaluates cell (i, j) now, verifying it first unless it is,
	// and stores it.
	fresh := func(i, j int) float64 {
		if st.cellState(i, j) != cellVerified {
			return settle(i, j, cellVerified)
		}
		ben[i][j] = st.evalBenCached(i, j)
		return ben[i][j]
	}
	// dustSweep re-evaluates every feasible cell outside the heap whose
	// stored value lies within tieWin below zero, and pushes those now
	// positive. It reports whether it pushed any. It runs only when the
	// best candidate is itself within tieWin of zero, or the heap drained.
	dustSweep := func() bool {
		pushed := false
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if heapKey[i][j] != 0 || ben[i][j] > 0 || ben[i][j] <= -tieWin || !p.CanReplicate(i, j) {
					continue
				}
				if v := fresh(i, j); v > 0 {
					hp.push(benEntry{key: v, i: int32(i), j: int32(j)})
					heapKey[i][j] = v
					pushed = true
				}
			}
		}
		return pushed
	}
	// screenTies is the selection step for a popped, verified cell
	// (i0, j0): every live entry within tieWin of its value — and, when
	// that value is itself within tieWin of zero, every dust cell — is
	// pulled, evaluated now and ranked with it; the losers go back at
	// their fresh values. On almost every pop the window is empty.
	var ties []benEntry
	screenTies := func(i0, j0 int) (int, int, float64) {
		best := benEntry{key: fresh(i0, j0), i: int32(i0), j: int32(j0)}
		heapKey[i0][j0] = 0 // popped: older entries for the cell are superseded
		floor := best.key - tieWin
		if floor <= 0 {
			dustSweep()
		}
		ties = ties[:0]
		for hp.len() > 0 && hp.e[0].key >= floor {
			o := hp.pop()
			pops++
			i, j := int(o.i), int(o.j)
			if o.key != heapKey[i][j] {
				superseded++
				continue
			}
			heapKey[i][j] = 0
			if !p.CanReplicate(i, j) {
				infeasible++
				continue
			}
			c := benEntry{key: fresh(i, j), i: o.i, j: o.j}
			if benLess(c, best) {
				c, best = best, c
			}
			ties = append(ties, c)
		}
		for _, c := range ties {
			if c.key > 0 {
				hp.push(c)
				heapKey[c.i][c.j] = c.key
			}
		}
		return int(best.i), int(best.j), best.key
	}

	for {
		if hp.len() == 0 {
			if dustSweep() {
				continue
			}
			break
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
			// Unreachable while the eager maintenance zeroes infeasible
			// cells, kept as a safeguard.
			infeasible++
			heapKey[bestI][bestJ] = 0
			continue
		}
		if s := st.cellState(bestI, bestJ); s != cellVerified {
			// A seed reached the top: bound just this cell at its own
			// point and re-key. A bounded cell: verify it and re-key at
			// the exact value.
			if v := settle(bestI, bestJ, s+1); v > 0 {
				hp.push(benEntry{key: v, i: e.i, j: e.j})
				heapKey[bestI][bestJ] = v
			} else {
				heapKey[bestI][bestJ] = 0
			}
			continue
		}
		// A verified cell holds an exact-now value (its slice stays valid
		// until its row receives a replica, which resets the row's cell
		// states below); rank it against its near ties.
		bestI, bestJ, bestB := screenTies(bestI, bestJ)
		if bestB <= 0 {
			continue // no candidate is worth a replica any more
		}

		// Lines 18–25, identical to the oracle's.
		copy(hOld, h[bestI])
		for k := 0; k < n; k++ {
			oldCol[k] = p.NearestCost(k, bestJ)
		}
		improved, err := p.ReplicateTracked(bestI, bestJ)
		if err != nil {
			panic(fmt.Sprintf("placement: internal error: %v", err))
		}
		visMass[bestI] -= preds[bestI].SitePopularity(bestJ)
		st.rowHitRatios(bestI, fan)
		st.syncNCCol(bestJ)
		st.syncMissRow(bestI)

		// SN events: server k's nearest replica of bestJ got closer. The
		// penalty lower-bound totals re-weight the placed site's term to
		// the new cost, so the tightened bound itself stays sound, and
		// the row is re-evaluated below. The cache event on bestI
		// re-slices its row, which is re-evaluated in full too, so it
		// carries no stale slice out of its own accept.
		clear(reeval)
		for _, k := range improved {
			if k != bestI {
				st.seedSNEvent(k, bestJ, oldCol[k])
				reeval[k] = true
			}
		}
		st.seedCacheEvent(bestI)
		reeval[bestI] = true
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
				if reeval[i] {
					continue
				}
				if dc := snCost - sys.CostServer[bestI][i]; dc > 0 {
					ben[i][j] += dc * w
					pushIfRaised(i, j)
				}
			}
		}
		// Re-evaluations fan out across rows: re-evaluated rows in full,
		// everyone else only the bestJ column cell. Only bestI's own cache
		// state changed, and it was re-sliced above; the other rows re-run
		// their benefit chains against their slices and bounds, with no
		// model evaluation.
		fanOutRows(n, workers, func(i int) {
			if reeval[i] {
				st.refreshRow(i)
			} else {
				st.refreshCell(i, bestJ)
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
		if cfg.Explain != nil {
			cfg.Explain(ExplainStep{
				Iter: len(res.Steps) - 1, Server: bestI, Site: bestJ,
				Benefit: bestB, PredictedCost: step.PredictedCost,
				HeapPops: pops, StaleReevals: stale,
				Superseded: superseded, Infeasible: infeasible,
				Engine: st.engineLabel, Model: string(st.model),
				CellsBounded: boundedN, CellsVerified: verifiedN,
			})
		}
		pops, stale, superseded, infeasible, verifiedN, boundedN = 0, 0, 0, 0, 0, 0
	}
	res.PredictedCost = hybridObjective(p, st.hitFn, cfg.UpdateRates)
	return res
}
