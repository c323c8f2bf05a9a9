// Lazy-greedy selection. Both placement algorithms pick, each
// iteration, the feasible (server, site) candidate with the largest
// cached benefit; the literal form of that — the test oracle of
// oracle_test.go — is a full O(n·m) argmax scan. The heaps in this file
// replace the scan with a max-heap ordered by (benefit desc, server
// asc, site asc) — exactly the order the scan's row-major
// strict-greater comparison induces — so the selected step sequence is
// bit-identical (enforced by TestLazyMatchesScan*).
//
// GreedyGlobal benefits are monotone non-increasing as replicas are
// placed (every term of greedyBenefit shrinks pointwise when a column's
// NearestCost entries drop), which admits the textbook CELF form: a
// stale heap entry is an upper bound on the cell's current value, so it
// is re-evaluated only when it surfaces at the heap top, and the eager
// per-iteration column re-evaluation disappears entirely. Re-evaluating
// at the pop reads exactly the state an eager column re-evaluation
// would have read (the column is unchanged since its last event), so
// the floats are bitwise identical to the oracle's matrix.
//
// Hybrid benefits can also rise (shrinking server i*'s cache lowers its
// hit ratios, raising the remote term other candidates earn from it),
// so the heap runs in a lazy-deletion form over an eagerly maintained
// matrix: any update that raises a cell above its live heap key pushes
// a fresh entry, decayed entries are re-pushed at their current value
// when popped, and the top entry whose key matches the live matrix is
// the argmax of the stored values — which the run then re-ranks against
// near ties by their fresh values (hybridheap.go, screenTies), as
// the oracle evaluates every candidate afresh. The model lookups
// themselves — the dominant cost — are served from a per-row cache of
// shrink-term hit ratios that stays valid until the row's own cache
// state changes (only the chosen server's row per iteration), returning
// the very float64 the predictor memo produced before.
package placement

import (
	"repro/internal/core"
	"repro/internal/lrumodel"
)

// benEntry is one heap candidate. epoch is the column epoch the entry's
// key was computed at (lazy-greedy engine); the hybrid engine leaves it
// at zero and detects staleness by comparing key against the live
// matrix.
type benEntry struct {
	key   float64
	i, j  int32
	epoch int32
}

// benHeap is a max-heap of candidates ordered by (key desc, i asc,
// j asc) — the scan's row-major first-maximum order. A hand-rolled
// sift-up/down avoids container/heap's interface boxing on a hot path.
type benHeap struct {
	e []benEntry
}

func benLess(a, b benEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

func (h *benHeap) len() int { return len(h.e) }

func (h *benHeap) push(e benEntry) {
	h.e = append(h.e, e)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !benLess(h.e[i], h.e[parent]) {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		i = parent
	}
}

func (h *benHeap) pop() benEntry {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && benLess(h.e[l], h.e[best]) {
			best = l
		}
		if r < last && benLess(h.e[r], h.e[best]) {
			best = r
		}
		if best == i {
			return top
		}
		h.e[i], h.e[best] = h.e[best], h.e[i]
		i = best
	}
}

// greedyLazy is the CELF-style engine behind GreedyGlobalOpts. The
// benefit of candidate (i, j) depends on the placement only through
// column j (NearestCost(·, j) and Has(·, j)), changes only when a
// replica of site j is created, and only ever decreases; feasibility,
// once lost, never returns (free space shrinks monotonically). So every
// heap entry keys an upper bound, a popped stale entry (column epoch
// behind) is re-evaluated against the current — equivalently,
// last-column-event — state and re-pushed, a popped infeasible entry is
// discarded for good, and the first fresh top is the scan's argmax —
// the oracle's float-op stream.
func greedyLazy(sys *core.System, cfg GreedyConfig) *Result {
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
	// Initial fill, identical to the oracle's.
	ben := make([][]float64, n)
	fanOutRows(n, workers, func(i int) {
		ben[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			ben[i][j] = greedyBenefit(sys, p, i, j) - updatePenalty(sys, updateRates, i, j)
		}
	})
	colEpoch := make([]int32, m)
	hp := benHeap{e: make([]benEntry, 0, n*m)}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if ben[i][j] > 0 {
				hp.push(benEntry{key: ben[i][j], i: int32(i), j: int32(j)})
			}
		}
	}
	engineLabel := EngineLabel(false)
	// Engine work counters since the last emitted step; plain ints on
	// the existing paths, so a nil Explain costs nothing.
	var pops, stale, infeasible int
	for hp.len() > 0 {
		e := hp.pop()
		pops++
		i, j := int(e.i), int(e.j)
		if !p.CanReplicate(i, j) {
			infeasible++
			continue // permanently infeasible: free only shrinks, Has only grows
		}
		if e.epoch != colEpoch[j] {
			// Stale: the column changed since the key was computed.
			// Re-evaluate — bitwise the value the oracle's eager column
			// re-evaluation holds right now — and re-push unless the
			// candidate dropped out (values never increase, so a
			// non-positive value stays non-positive).
			stale++
			if v := greedyBenefit(sys, p, i, j) - updatePenalty(sys, updateRates, i, j); v > 0 {
				hp.push(benEntry{key: v, i: e.i, j: e.j, epoch: colEpoch[j]})
			}
			continue
		}
		// Fresh top: the scan's row-major first maximum.
		mustReplicate(p, i, j)
		colEpoch[j]++
		cost := objective()
		res.Steps = append(res.Steps, Step{
			Server:        i,
			Site:          j,
			Benefit:       e.key,
			PredictedCost: cost,
		})
		if cfg.Explain != nil {
			cfg.Explain(ExplainStep{
				Iter: len(res.Steps) - 1, Server: i, Site: j,
				Benefit: e.key, PredictedCost: cost,
				HeapPops: pops, StaleReevals: stale, Infeasible: infeasible,
				Engine: engineLabel,
			})
		}
		pops, stale, infeasible = 0, 0, 0
	}
	res.PredictedCost = objective()
	return res
}

// evalBenCached is the hybrid heap's cell evaluation. It is the same
// computation as the oracle's evalBen (hybridBenefit) — identical
// floating-point chain, hence bitwise-identical values — except that
// the shrink-term model values preds[i].SiteHitRatioCond(k, ·, ·) are
// read from the row's m×m cache hShrink[i], indexed [candidate j][site
// k], where fillSlice stored them. The cached inputs (Free(i),
// visMass[i], the row's visibility and h[i]) change only when server i
// itself receives a replica, so a slice stays valid across the many
// iterations where only its NearestCost column entries move, and the
// predictor memo guarantees a recomputation would return the very same
// float64. A slice of Jensen bounds in place of the model's values
// makes the result an upper bound on the cell instead (the bounded
// cells, hybridheap.go).
func (st *hybridState) evalBenCached(i, j int) float64 {
	p := st.p
	if !p.CanReplicate(i, j) {
		return 0
	}
	sys, h, m := st.sys, st.h, st.m

	// Line 9: local benefit.
	b := (1 - h[i][j]) * sys.Demand[i][j] * p.NearestCost(i, j)

	// Lines 10–13: shrink penalty, model values cached per row epoch.
	// Cells skipped here (k == j, replicated at i, or infeasible j —
	// handled above) are never read back within the same epoch, because
	// the skip conditions only change when the row is refilled.
	row, hi := st.hShrink[i][j*m:(j+1)*m], h[i]
	for k := 0; k < m; k++ {
		if k == j || p.Has(i, k) {
			continue
		}
		if dh := hi[k] - row[k]; dh != 0 {
			b -= dh * sys.Demand[i][k] * p.NearestCost(i, k)
		}
	}

	// Lines 14–17: remote benefit.
	return st.remoteBenefit(b, i, j) - updatePenalty(sys, st.cfg.UpdateRates, i, j)
}

// fillSlice stores candidate (i, j)'s shrink slice in hShrink[i][j·m:]: for
// every site k the penalty sums, its hit ratio at server i once site j's
// replica takes o_j bytes of the cache and p_j of its visible mass.
// exact evaluates the model, one batch whose Equation (1) misses run
// under fan; otherwise each entry is the model's Jensen upper bound
// (SiteHitRatioCondUpper), ~30 terms and no memo entry. The entries the
// penalty skips are left alone.
func (st *hybridState) fillSlice(i, j int, exact bool, fan lrumodel.Fan) {
	p, pred, m := st.p, st.preds[i], st.m
	newCache := p.Free(i) - st.sys.SiteBytes[j]
	newMass := st.visMass[i] - pred.SitePopularity(j)
	row := st.hShrink[i][j*m : (j+1)*m]
	if !exact {
		for k := 0; k < m; k++ {
			if k != j && !p.Has(i, k) {
				row[k] = pred.SiteHitRatioCondUpper(k, newMass, newCache)
			}
		}
		return
	}
	sites := st.sites[i][:0]
	for k := 0; k < m; k++ {
		if k != j && !p.Has(i, k) {
			sites = append(sites, k)
		}
	}
	st.sites[i] = sites
	pred.SiteHitRatiosCond(sites, newMass, newCache, row, fan)
}

// rowHitRatios recomputes h[i] at the row's current placement: the
// model's hit ratio of every site still visible to server i's cache, 0
// for the sites it replicates — HitRatiosCond's values, as one batch
// whose misses run under fan, into the row's own slice.
func (st *hybridState) rowHitRatios(i int, fan lrumodel.Fan) {
	p, pred, hi := st.p, st.preds[i], st.h[i]
	mass := 0.0
	sites := st.sites[i][:0]
	for k := 0; k < st.m; k++ {
		hi[k] = 0
		if !p.Has(i, k) {
			mass += pred.SitePopularity(k)
			sites = append(sites, k)
		}
	}
	st.sites[i] = sites
	pred.SiteHitRatiosCond(sites, mass, p.Free(i), hi, fan)
}
