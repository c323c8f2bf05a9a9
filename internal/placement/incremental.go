// Warm-start incremental re-placement. The control plane re-solves
// Hybrid every reconcile round, but between rounds the EWMA demand
// matrix usually moves only a little, and a cold run spends much of its
// time on work the previous round already did: building N predictors
// with their initial hit ratios (n·m Equation (1) evaluations, about
// half of a cold solve at the paper's scale now that its seeds read the
// model's Jensen bound), the reference slices, and the cells it bounded
// and verified on the way. Incremental reuses the previous round's
// WarmState — the heap run's own seed state — instead:
//
//   - Rows whose demand moved less than DefaultWarmDriftThreshold
//     (relative L1) keep their predictor, hit ratios, visible mass,
//     reference slices and every bounded or verified slice — all the
//     model state. Their penalty lower-bound totals are re-weighted to
//     the live demand and their benefit cells re-derived against it and
//     the live nearest-replica tables, arithmetic only, so cross-row
//     staleness (another row's demand or hit ratios changed) never
//     accumulates; the only approximation is the kept model state
//     itself, off by at most the sub-threshold demand drift of its own
//     row.
//
//   - Dirty rows are rebuilt exactly: new predictor (against the
//     SHARED hit-ratio table, so grid points memoized in earlier
//     rounds are reused bit for bit), fresh hit ratios and visible
//     mass under the carried-over placement, fresh reference slices
//     (K·m Jensen bounds), every cell a seed again.
//
//   - The previous placement is carried over and the heap run resumes
//     from it, so a quiet round does almost no selection work: every
//     remaining candidate was already non-positive when the previous
//     round terminated. Greedy replica creation is monotone — a warm
//     round can add replicas but never remove one the demand shift no
//     longer justifies — which is why large drift falls back to a
//     cold run: when more than DefaultWarmMaxDirtyFrac of the rows are
//     dirty (or the topology changed), the carried-over placement
//     itself is suspect and Incremental re-solves from scratch.
//
// With unchanged demand the warm round reproduces the cold solution
// exactly (test-enforced in internal/control): nothing is dirty,
// nothing has positive benefit, the placement passes through.
package placement

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/lrumodel"
)

// Warm-start thresholds; chosen so that EWMA noise on a stationary
// workload stays warm while a genuine hot-spot shift (the
// fault-injection and flash-crowd scenarios) goes cold. A row whose
// demand drifted more than DefaultWarmDriftThreshold (relative L1) since
// its model state was built is rebuilt; more than DefaultWarmMaxDirtyFrac
// of the rows dirty abandons the warm path for a cold run.
const (
	DefaultWarmDriftThreshold = 0.05
	DefaultWarmMaxDirtyFrac   = 0.25
)

// WarmState is the reusable solver state captured from a hybrid run:
// the finished heap run's state — the solution placement, every row's
// model state, reference slices and cell states — plus the step recipe.
// It is produced and consumed by Incremental; treat it as opaque.
type WarmState struct {
	st    *hybridState
	steps []Step
	// demand is the per-row demand snapshot the kept model state was
	// built against; row drift is measured against it.
	demand [][]float64
}

// Steps returns the full replica-creation recipe of the warm solution
// (all rounds' steps, in order).
func (w *WarmState) Steps() []Step { return w.steps }

// rowModel returns row i's predictor when it was built from exactly
// sys's demand row and capacity, and nil otherwise. demand[i] is the
// row the predictor was built from, and its capacity is the solve's:
// a warm repair only ever runs on the same topology.
func (w *WarmState) rowModel(sys *core.System, i int) *lrumodel.Predictor {
	if w.st.sys.Capacity[i] != sys.Capacity[i] || !slices.Equal(w.demand[i], sys.Demand[i]) {
		return nil
	}
	return w.st.preds[i]
}

// SharedStats exposes the cross-round hit-ratio table's traffic.
func (w *WarmState) SharedStats() lrumodel.SharedTableStats {
	if w == nil {
		return lrumodel.SharedTableStats{}
	}
	return w.st.shared.Stats()
}

// IncrementalConfig parameterizes Incremental.
type IncrementalConfig struct {
	HybridConfig
}

// IncrementalStats reports what an Incremental call did.
type IncrementalStats struct {
	// Warm is true when the previous state was repaired in place;
	// false means a cold solve ran (Reason says why).
	Warm bool `json:"warm"`
	// Reason labels a cold run: "cold-start", "topology-changed",
	// "drift-too-large", "model-changed". Empty on warm rounds.
	Reason string `json:"reason,omitempty"`
	// DirtyRows / TotalRows is the measured drift extent; MaxRowDrift
	// is the largest relative L1 row drift observed.
	DirtyRows   int     `json:"dirty_rows"`
	TotalRows   int     `json:"total_rows"`
	MaxRowDrift float64 `json:"max_row_drift"`
	// PredictorsReused counts rows that kept their model state.
	PredictorsReused int `json:"predictors_reused"`
	// StepsAdded counts replicas the round created on top of the
	// carried-over placement (warm) or in total (cold).
	StepsAdded int `json:"steps_added"`
	// Shared is the cross-round hit-ratio table after the round.
	Shared lrumodel.SharedTableStats `json:"shared"`
}

// rowDriftL1 is the relative L1 distance between a row's old and new
// demand: Σ_j |new−old| / Σ_j old (1.0 when the old row was all-zero
// and the new one is not).
func rowDriftL1(old, new []float64) float64 {
	var num, den float64
	for j := range old {
		num += math.Abs(new[j] - old[j])
		den += old[j]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return 1
	}
	return num / den
}

// sameTopology reports whether everything except Demand matches between
// the warm state's system and the new one — the precondition for
// carrying the placement and the per-row model state across.
func sameTopology(a, b *core.System) bool {
	if a == b {
		return true
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for i := range a.Capacity {
		if a.Capacity[i] != b.Capacity[i] {
			return false
		}
	}
	for j := range a.SiteBytes {
		if a.SiteBytes[j] != b.SiteBytes[j] {
			return false
		}
	}
	for i := range a.CostServer {
		for k := range a.CostServer[i] {
			if a.CostServer[i][k] != b.CostServer[i][k] {
				return false
			}
		}
		for j := range a.CostOrigin[i] {
			if a.CostOrigin[i][j] != b.CostOrigin[i][j] {
				return false
			}
		}
	}
	return true
}

// Incremental re-solves the hybrid placement for sys (whose Demand is
// the new EWMA matrix), warm-starting from prev when the drift allows
// it. prev == nil runs cold: Hybrid's solve, its state captured. The
// returned WarmState feeds the next round; prev must not be used again
// after the call (its buffers are consumed by the repair).
func Incremental(prev *WarmState, sys *core.System, cfg IncrementalConfig) (*Result, *WarmState, IncrementalStats, error) {
	n := sys.N()
	stats := IncrementalStats{TotalRows: n}

	kind, err := lrumodel.ParseModelKind(cfg.Model)
	if err != nil {
		return nil, nil, stats, err
	}

	cold := func(reason string) (*Result, *WarmState, IncrementalStats, error) {
		stats.Warm = false
		stats.Reason = reason
		var shared *lrumodel.SharedTable
		if prev != nil {
			shared = prev.st.shared // grid points survive even a cold fallback
			// (entries are keyed by model kind, so this is safe across
			// a model change too)
		}
		res, st, err := hybridSolve(sys, cfg.HybridConfig, shared)
		if err != nil {
			return nil, nil, stats, err
		}
		warm := captureWarmState(st, res, nil, nil)
		stats.StepsAdded = len(res.Steps)
		stats.Shared = warm.SharedStats()
		return res, warm, stats, nil
	}

	if prev == nil {
		return cold("cold-start")
	}
	if !sameTopology(prev.st.sys, sys) {
		return cold("topology-changed")
	}
	if prev.st.model != kind {
		// The carried-over benefit matrices, hit ratios and the greedy
		// placement itself were all derived under a different model;
		// none of it is valid warm-start state.
		return cold("model-changed")
	}

	// Measure per-row drift against the snapshot the kept model state
	// was built on.
	dirty := make([]bool, n)
	for i := 0; i < n; i++ {
		d := rowDriftL1(prev.demand[i], sys.Demand[i])
		if d > stats.MaxRowDrift {
			stats.MaxRowDrift = d
		}
		if d > DefaultWarmDriftThreshold {
			dirty[i] = true
			stats.DirtyRows++
		}
	}
	if float64(stats.DirtyRows) > DefaultWarmMaxDirtyFrac*float64(n) {
		return cold("drift-too-large")
	}
	stats.Warm = true
	stats.PredictorsReused = n - stats.DirtyRows

	st, err := repairState(prev, sys, cfg.HybridConfig, dirty)
	if err != nil {
		return nil, nil, stats, err
	}
	res := hybridHeapRun(st)
	stats.StepsAdded = len(res.Steps) - len(prev.steps)
	next := captureWarmState(st, res, prev.demand, dirty)
	stats.Shared = next.SharedStats()
	return res, next, stats, nil
}

// repairState carries prev's heap-run state onto sys — same topology,
// new demand — ready for the heap run to resume. prev is consumed.
//
// The repair runs in two passes. First every row brings its seed state
// to the new demand: a dirty row rebuilds its model state exactly,
// re-slices its reference bounds at it (K·m Jensen bounds) and turns
// every cell back into a seed; a clean row keeps its model state,
// slices and cell states, and re-weights its penalty lower-bound totals
// to the new demand — arithmetic only, and sound under any demand
// (optReweightRow). Only once every row's hit ratios are final does any
// row re-derive its benefit cells: a cell's remote term reads h[s][j]
// of every other row s.
func repairState(prev *WarmState, sys *core.System, cfg HybridConfig, dirty []bool) (*hybridState, error) {
	st := prev.st
	// The placement carries over with every replica (same topology, so
	// each still fits and the nearest-replica tables rebuild to the same
	// entries).
	p, err := st.p.RebuildOn(sys)
	if err != nil {
		return nil, fmt.Errorf("placement: warm rebuild: %w", err)
	}
	st.sys, st.cfg, st.p = sys, cfg, p
	st.workers = normWorkers(cfg.Parallelism, st.n)
	st.engineLabel = EngineLabel(true)
	st.baseSteps = prev.steps

	m := st.m
	fanOutRows(st.n, st.workers, func(i int) {
		if !dirty[i] {
			st.optReweightRow(i)
			return
		}
		st.preds[i] = mustModel(st.model, cfg.Specs, sys.Demand[i], cfg.AvgObjectBytes, sys.Capacity[i], st.shared)
		vm := 1.0
		for j := 0; j < m; j++ {
			if p.Has(i, j) {
				vm -= st.preds[i].SitePopularity(j)
			}
		}
		st.rowHitRatios(i, nil)
		st.visMass[i] = vm
		st.optSliceRow(i)
		clear(st.cells[i])
	})
	st.syncCols()
	fanOutRows(st.n, st.workers, st.refreshRow)
	return st, nil
}

// mustModel builds a model for one server row, panicking on invalid
// input — the warm paths only rebuild rows for configurations a cold
// run has already validated, so an error here is a programming bug.
func mustModel(kind lrumodel.ModelKind, specs []lrumodel.SiteSpec, weights []float64, avgObjBytes float64, maxCacheBytes int64, shared *lrumodel.SharedTable) *lrumodel.Predictor {
	m, err := lrumodel.New(lrumodel.ModelConfig{
		Kind:           kind,
		Specs:          specs,
		Weights:        weights,
		AvgObjectBytes: avgObjBytes,
		MaxCacheBytes:  maxCacheBytes,
		Shared:         shared,
	})
	if err != nil {
		panic(err.Error())
	}
	return m
}

// captureWarmState snapshots the finished run's state: every row's
// slices and cell states are consistent with the final placement, since
// a row's own accept re-slices it. A row's drift baseline is the demand
// its model state was BUILT against, not this round's: clean rows keep
// prevDemand[i] so sub-threshold drift accumulates across rounds until
// the row is rebuilt, instead of resetting to zero every round.
// rebuilt == nil means every row was built fresh this round.
func captureWarmState(st *hybridState, res *Result, prevDemand [][]float64, rebuilt []bool) *WarmState {
	demand := make([][]float64, st.n)
	for i := range demand {
		if rebuilt != nil && !rebuilt[i] {
			demand[i] = prevDemand[i] // prev is consumed; aliasing is safe
			continue
		}
		demand[i] = append([]float64(nil), st.sys.Demand[i]...)
	}
	return &WarmState{st: st, steps: res.Steps, demand: demand}
}
