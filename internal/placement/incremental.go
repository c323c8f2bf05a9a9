// Warm-start incremental re-placement. The control plane re-solves
// Hybrid every reconcile round, but between rounds the EWMA demand
// matrix usually moves only a little, and a cold run spends almost all
// of its time on work the previous round already did: building N
// predictors with their initial hit ratios (n·m Equation (1)
// evaluations, about half of a lazy cold solve at the paper's scale now
// that its seeds read the model's Jensen bound) and, for the capturing
// cold round below, the n·m² shrink-table fill. Incremental reuses the
// previous round's WarmState instead:
//
//   - Rows whose demand moved less than DriftThreshold (relative L1)
//     keep their predictor, hit ratios, visible mass and m×m
//     shrink-term cache — all the model state. Their benefit cells are
//     re-derived arithmetically (fill=false) against the live demand
//     and nearest-replica tables, so cross-row staleness (another
//     row's demand or hit ratios changed) never accumulates; the only
//     approximation is the kept model state itself, off by at most the
//     sub-threshold demand drift of its own row.
//
//   - Dirty rows are rebuilt exactly: new predictor (against the
//     SHARED hit-ratio table, so grid points memoized in earlier
//     rounds are reused bit for bit), fresh hit ratios and visible
//     mass under the carried-over placement, full row rescore with a
//     shrink-cache refill.
//
//   - The previous placement is carried over and the heap run resumes
//     from it, so a quiet round does no selection work at all: every
//     remaining candidate was already non-positive when the previous
//     round terminated. Greedy replica creation is monotone — a warm
//     round can add replicas but never remove one the demand shift no
//     longer justifies — which is why large drift falls back to a
//     cold run: when more than MaxDirtyFrac of the rows are dirty (or
//     the topology changed), the carried-over placement itself is
//     suspect and Incremental re-solves from scratch.
//
// With unchanged demand the warm round reproduces the cold solution
// exactly (test-enforced in internal/control): nothing is dirty,
// nothing has positive benefit, the placement passes through.
package placement

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lrumodel"
)

// Default thresholds for IncrementalConfig; chosen so that EWMA noise
// on a stationary workload stays warm while a genuine hot-spot shift
// (the fault-injection and flash-crowd scenarios) goes cold.
const (
	DefaultWarmDriftThreshold = 0.05
	DefaultWarmMaxDirtyFrac   = 0.25
)

// WarmState is the reusable solver state captured from a hybrid run:
// the solution placement plus every piece of model state the next
// round can carry over. It is produced and consumed by Incremental
// (and seeded by a cold run through it); treat it as opaque.
type WarmState struct {
	placement *core.Placement
	model     lrumodel.ModelKind
	preds     []lrumodel.Model
	shared    *lrumodel.SharedTable
	h         [][]float64
	visMass   []float64
	ben       [][]float64
	hShrink   [][]float64
	steps     []Step
	// demand is the per-row demand snapshot the kept model state was
	// built against; row drift is measured against it.
	demand [][]float64
	// sys is the system the state was captured on; topology changes
	// against it force a cold run.
	sys *core.System
}

// Steps returns the full replica-creation recipe of the warm solution
// (all rounds' steps, in order).
func (w *WarmState) Steps() []Step { return w.steps }

// Shared returns the cross-round hit-ratio table (nil before any heap
// run). Callers can pass it to PredictCostOpts so repeated cost probes
// reuse the solver's memoized grid points.
func (w *WarmState) Shared() *lrumodel.SharedTable {
	if w == nil {
		return nil
	}
	return w.shared
}

// SharedStats exposes the cross-round hit-ratio table's traffic.
func (w *WarmState) SharedStats() lrumodel.SharedTableStats {
	if w == nil || w.shared == nil {
		return lrumodel.SharedTableStats{}
	}
	return w.shared.Stats()
}

// IncrementalConfig parameterizes Incremental.
type IncrementalConfig struct {
	HybridConfig
	// DriftThreshold is the relative L1 demand drift above which a
	// server's row is rebuilt exactly (predictor, hit ratios, shrink
	// cache). 0 means DefaultWarmDriftThreshold; negative disables the
	// tolerance (every row with any drift is dirty).
	DriftThreshold float64
	// MaxDirtyFrac is the dirty-row fraction above which the warm path
	// is abandoned for a cold run. 0 means DefaultWarmMaxDirtyFrac;
	// negative forces cold on any dirty row.
	MaxDirtyFrac float64
}

func (cfg IncrementalConfig) driftThreshold() float64 {
	if cfg.DriftThreshold == 0 {
		return DefaultWarmDriftThreshold
	}
	return math.Max(cfg.DriftThreshold, 0)
}

func (cfg IncrementalConfig) maxDirtyFrac() float64 {
	if cfg.MaxDirtyFrac == 0 {
		return DefaultWarmMaxDirtyFrac
	}
	return math.Max(cfg.MaxDirtyFrac, 0)
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
// it. prev == nil runs cold. The returned WarmState feeds the next
// round; prev must not be used again after the call (its buffers are
// consumed by the repair).
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
			shared = prev.shared // grid points survive even a cold fallback
			// (entries are keyed by model kind, so this is safe across
			// a model change too)
		}
		res, warm, err := hybridColdCaptured(sys, cfg.HybridConfig, shared)
		if err != nil {
			return nil, nil, stats, err
		}
		stats.StepsAdded = len(res.Steps)
		stats.Shared = warm.SharedStats()
		return res, warm, stats, nil
	}

	if prev == nil {
		return cold("cold-start")
	}
	if !sameTopology(prev.sys, sys) {
		return cold("topology-changed")
	}
	if prev.model != kind {
		// The carried-over benefit matrices, hit ratios and the greedy
		// placement itself were all derived under a different model;
		// none of it is valid warm-start state.
		return cold("model-changed")
	}

	// Measure per-row drift against the snapshot the kept model state
	// was built on.
	thresh := cfg.driftThreshold()
	dirty := make([]bool, n)
	for i := 0; i < n; i++ {
		d := rowDriftL1(prev.demand[i], sys.Demand[i])
		if d > stats.MaxRowDrift {
			stats.MaxRowDrift = d
		}
		if d > thresh {
			dirty[i] = true
			stats.DirtyRows++
		}
	}
	if float64(stats.DirtyRows) > cfg.maxDirtyFrac()*float64(n) {
		return cold("drift-too-large")
	}
	stats.Warm = true
	stats.PredictorsReused = n - stats.DirtyRows

	// Carry the placement onto the new system (same topology, so every
	// replica still fits and the nearest-replica tables rebuild to the
	// same entries).
	p, err := prev.placement.RebuildOn(sys)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("placement: warm rebuild: %w", err)
	}

	st := &hybridState{
		sys:         sys,
		cfg:         cfg.HybridConfig,
		p:           p,
		model:       kind,
		preds:       prev.preds,
		shared:      prev.shared,
		h:           prev.h,
		visMass:     prev.visMass,
		workers:     normWorkers(cfg.Parallelism, n),
		n:           n,
		m:           sys.M(),
		engineLabel: EngineLabel(cfg.Epsilon, true),
		ben:         prev.ben,
		hShrink:     prev.hShrink,
		baseSteps:   prev.steps,
		captureWarm: true,
		sites:       make([][]int, n),
	}

	// Repair, in two passes. First the dirty rows rebuild their model
	// state exactly. Only once every row's hit ratios are final does any
	// row re-derive its benefit cells against the live demand (clean rows
	// from their kept shrink caches, fill=false — pure arithmetic): a
	// cell's remote term reads h[s][j] of every other row s.
	m := st.m
	fanOutRows(n, st.workers, func(i int) {
		if !dirty[i] {
			return
		}
		st.preds[i] = mustModel(kind, cfg.Specs, sys.Demand[i], cfg.AvgObjectBytes, sys.Capacity[i], st.shared)
		vm := 1.0
		for j := 0; j < m; j++ {
			if p.Has(i, j) {
				vm -= st.preds[i].SitePopularity(j)
			}
		}
		st.rowHitRatios(i, nil)
		st.visMass[i] = vm
	})
	fanOutRows(n, st.workers, func(i int) {
		for j := 0; j < m; j++ {
			st.ben[i][j] = st.evalBenCached(i, j, st.hShrink[i], dirty[i])
		}
	})

	res := hybridHeapRun(st, maxf(cfg.Epsilon, 0))
	stats.StepsAdded = len(res.Steps) - len(prev.steps)
	next := captureWarmState(st, res, prev.demand, dirty)
	stats.Shared = next.SharedStats()
	return res, next, stats, nil
}

// hybridColdCaptured is a cold hybrid solve that also captures the
// WarmState for the next round. The warm state is the exact fill's
// matrices, so it starts from prepareCold at any Epsilon rather than
// from Hybrid's lazy seeds: every row's table is needed at the end
// anyway, and a lazy start plus a final fill measured slower
// (Incremental(nil) at x1: 197 → 239 ms). The heap run after it is
// Hybrid's, exact-selection path included (screenTies at ε = 0).
// shared may carry a previous round's hit-ratio table.
func hybridColdCaptured(sys *core.System, cfg HybridConfig, shared *lrumodel.SharedTable) (*Result, *WarmState, error) {
	st, err := newHybridState(sys, cfg, shared)
	if err != nil {
		return nil, nil, err
	}
	st.captureWarm = true
	st.prepareCold()
	res := hybridHeapRun(st, maxf(cfg.Epsilon, 0))
	return res, captureWarmState(st, res, nil, nil), nil
}

// mustModel builds a model for one server row, panicking on invalid
// input — the warm paths only rebuild rows for configurations a cold
// run has already validated, so an error here is a programming bug.
func mustModel(kind lrumodel.ModelKind, specs []lrumodel.SiteSpec, weights []float64, avgObjBytes float64, maxCacheBytes int64, shared *lrumodel.SharedTable) lrumodel.Model {
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

// captureWarmState snapshots the finished run's solver state (the run
// was started with captureWarm, so the shrink caches are consistent
// with the final placement). A row's drift baseline is the demand its
// model state was BUILT against, not this round's: clean rows keep
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
	return &WarmState{
		placement: st.p,
		model:     st.model,
		preds:     st.preds,
		shared:    st.shared,
		h:         st.h,
		visMass:   st.visMass,
		ben:       st.ben,
		hShrink:   st.hShrink,
		steps:     res.Steps,
		demand:    demand,
		sys:       st.sys,
	}
}
