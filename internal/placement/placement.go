// Package placement implements the replica placement algorithms of the
// paper: the greedy-global baseline of [13, 15, 23] (§2.2, §5.2) and the
// hybrid algorithm of Figure 2 (§4) that weighs every candidate replica
// against the LRU cache space it would consume. Ad-hoc fixed-split,
// random and local-popularity heuristics are included for the Figure 5
// comparison and for ablations.
package placement

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/xrand"
)

// normWorkers resolves a Parallelism knob: 0 means GOMAXPROCS, anything
// below 1 is clamped to serial, and more workers than rows is pointless.
func normWorkers(parallelism, rows int) int {
	w := parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > rows {
		w = rows
	}
	return w
}

// fanOutRows evaluates f(i) for every i in [0, n) on at most workers
// goroutines, which claim rows one at a time from a shared cursor, so a
// worker that drew cheap rows takes more of them. Each row is evaluated
// by exactly one goroutine — the granularity that keeps per-server state
// (the lrumodel predictors' memo tables) unshared — and every cell is a
// pure function of the placement, so parallel evaluation is
// bit-identical to serial whichever worker claims which row. The calling
// goroutine claims rows too, so a fan-out spawns workers−1 goroutines
// and workers <= 1 evaluates inline.
func fanOutRows(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Step records one replica creation decision.
type Step struct {
	Server, Site int
	// Benefit is the algorithm's estimated cost reduction for the
	// step (model-predicted for Hybrid, exact for GreedyGlobal): the
	// chosen cell evaluated at selection, as the scanning oracle does.
	Benefit float64
	// PredictedCost is the objective D after applying the step, under
	// the algorithm's own cost model.
	PredictedCost float64
}

// Result is the outcome of a placement algorithm.
type Result struct {
	Placement *core.Placement
	// PredictedCost is the final objective D under the algorithm's
	// cost model (with caching for Hybrid, without for the others).
	PredictedCost float64
	Steps         []Step
}

// GreedyGlobal is the stand-alone replica placement baseline: during each
// iteration all server-site pairs are compared and the one producing the
// largest benefit is replicated; it terminates when servers are full or
// the best remaining benefit is non-positive. No caching is assumed
// (h = 0 everywhere).
func GreedyGlobal(sys *core.System) *Result {
	return GreedyGlobalOpts(sys, GreedyConfig{})
}

// GreedyGlobalUpdates is GreedyGlobal under the read-plus-update FAP
// objective (§2.2, [19, 28]): each candidate replica's benefit is
// reduced by the update-propagation cost u_j·C(i, SP_j) it would incur.
// nil updateRates means read-only (= GreedyGlobal).
func GreedyGlobalUpdates(sys *core.System, updateRates []float64) *Result {
	return GreedyGlobalOpts(sys, GreedyConfig{UpdateRates: updateRates})
}

// GreedyConfig parameterizes GreedyGlobalOpts.
type GreedyConfig struct {
	// UpdateRates, if non-nil, adds the read-plus-update FAP objective
	// (see GreedyGlobalUpdates).
	UpdateRates []float64
	// Parallelism is the worker count the benefit-matrix evaluation
	// fans out across (0 = GOMAXPROCS, 1 = serial). Every matrix cell
	// is a pure function of the current placement and the selection
	// stays sequential, so parallel and serial runs produce identical
	// step sequences.
	Parallelism int
	// Explain, if non-nil, receives one ExplainStep per replica created
	// (nil-cost when disabled; see ExplainWriter).
	Explain ExplainWriter
}

// GreedyGlobalOpts is the greedy-global algorithm with explicit options:
// the CELF-style heap of lazy.go.
func GreedyGlobalOpts(sys *core.System, cfg GreedyConfig) *Result {
	return greedyLazy(sys, cfg)
}

// greedyBenefit is the no-cache benefit of replica (i, j): the local
// redirection cost removed plus the improvement for every other server
// whose nearest replica of j gets closer.
func greedyBenefit(sys *core.System, p *core.Placement, i, j int) float64 {
	b := sys.Demand[i][j] * p.NearestCost(i, j)
	for k := 0; k < sys.N(); k++ {
		if k == i || p.Has(k, j) {
			continue
		}
		if dc := p.NearestCost(k, j) - sys.CostServer[k][i]; dc > 0 {
			b += dc * sys.Demand[k][j]
		}
	}
	return b
}

// updatePenalty is the update-propagation cost a new replica (i, j)
// would add: u_j · C(i, SP_j).
func updatePenalty(sys *core.System, updateRates []float64, i, j int) float64 {
	if updateRates == nil {
		return 0
	}
	return updateRates[j] * sys.CostOrigin[i][j]
}

// HybridConfig parameterizes the hybrid algorithm.
type HybridConfig struct {
	// Specs carries the object-level statistics of every site for the
	// analytical cache model (λ included).
	Specs []lrumodel.SiteSpec
	// AvgObjectBytes is ō, used to convert cache bytes to LRU slots.
	AvgObjectBytes float64
	// Model selects the analytical hit-ratio model the benefit terms
	// are evaluated under: "eq1" (the paper's Equations (1)/(2), the
	// default), "che" or "random" (for FIFO/RANDOM fleets) — see
	// lrumodel.ModelKinds. Empty means eq1.
	Model string
	// UpdateRates, if non-nil, adds the read-plus-update FAP objective
	// ([19, 28]): a candidate replica of site j at server i pays
	// UpdateRates[j]·C(i, SP_j) in update propagation. Caches are
	// invalidation-maintained and pay nothing here (their freshness
	// cost is the λ term of §3.3).
	UpdateRates []float64
	// Parallelism is the worker count the benefit-matrix evaluation
	// fans out across (0 = GOMAXPROCS, 1 = serial). Work is distributed
	// at row (server) granularity, so each server's lrumodel predictor
	// — which memoizes internally and is not safe for concurrent use —
	// is only ever touched by one goroutine, and every evaluated cell
	// is a pure function of the placement: parallel and serial runs
	// produce identical step sequences.
	Parallelism int
	// Deprecated: ignored. Every run is the exact Figure 2 greedy.
	Epsilon float64
	// Explain, if non-nil, receives one ExplainStep per replica created
	// (nil-cost when disabled; see ExplainWriter).
	Explain ExplainWriter
}

// Hybrid is the paper's Figure 2 algorithm. It starts from a network
// where all storage is cache, and at each iteration creates the replica
// with the largest net benefit:
//
//	b_ij = (1 − h_j^(i)) · r_j^(i) · C(i, SN_j^(i))              (line 9)
//	     − Σ_{k≠j} Δh_k^(i) · r_k^(i) · C(i, SN_k^(i))           (lines 10–13)
//	     + Σ_{s≠i} max(0, C(s,SN_j^(s)) − C(s,i)) · (1−h_j^(s)) · r_j^(s)   (lines 14–17)
//
// where Δh is the model-predicted hit-ratio loss from shrinking server
// i's cache by o_j bytes. It terminates when no candidate has positive
// benefit or no site fits anywhere.
//
// The heap starts from cheap upper bounds on every b_ij and evaluates
// the shrink term of a cell only when the cell reaches the top
// (hybridheap.go); the steps are the exact greedy's. The seeds bound
// their cells because every Model kind's hit ratio is monotone in the
// cache size (lrumodel's TestKMonotoneInBEveryModel).
func Hybrid(sys *core.System, cfg HybridConfig) (*Result, error) {
	res, _, err := hybridSolve(sys, cfg, nil)
	return res, err
}

// hybridSolve is Hybrid over a caller's shared hit-ratio table (nil for
// the run's own), so tests and benchmarks can read the table's counts.
// It also returns the finished run's state, which Incremental captures.
func hybridSolve(sys *core.System, cfg HybridConfig, shared *lrumodel.SharedTable) (*Result, *hybridState, error) {
	st, err := newHybridState(sys, cfg, shared)
	if err != nil {
		return nil, nil, err
	}
	st.prepareOptimistic()
	return hybridHeapRun(st), st, nil
}

// hybridState is the setup of a heap run: the placement under
// construction, one model per server and the current per-server hit
// ratios and visible cache mass (lines 1–5 of Figure 2).
type hybridState struct {
	sys     *core.System
	cfg     HybridConfig
	p       *core.Placement
	model   lrumodel.ModelKind
	preds   []*lrumodel.Predictor
	shared  *lrumodel.SharedTable
	h       [][]float64
	visMass []float64
	workers int
	n, m    int
	// engineLabel is the run's ExplainStep.Engine (see EngineLabel).
	engineLabel string
	// ben / hShrink are the benefit matrix and per-row shrink-term
	// caches the heap runs over; prepareOptimistic seeds them, and a
	// warm round repairs the previous run's.
	ben     [][]float64
	hShrink [][]float64
	// sites is each row's site-list scratch for its model batches
	// (fillSlice, rowHitRatios); a row is only ever filled by the one
	// goroutine that owns it.
	sites [][]int
	// baseSteps are replicas already present before the heap run (warm
	// repair only); they are prepended to Result.Steps so the step list
	// stays a complete creation recipe for the final placement.
	baseSteps []Step
	// cells[i][j] is the state of cell (i, j) — seed, bounded or
	// verified (hybridheap.go). A row's cells and hShrink row are
	// allocated when its first cell surfaces; until then every cell of
	// the row is a seed, and ben holds its tightened optimistic upper
	// bound. optRefO holds the reference shrink sizes (site-size
	// quantiles), optQ maps each site to its reference slice, optL holds
	// the per-row slice hit-ratio drops and optPenTot the resulting
	// penalty lower-bound totals, maintained arithmetically as
	// nearest-replica costs and demand move and recomputed (optSliceRow)
	// when the row's own model state changes.
	cells     [][]uint8
	optRefO   []int64
	optQ      []int
	optL      [][]float64
	optPenTot [][]float64
	// colNC, colMiss and colDem are column-major copies of the remote
	// term's inputs (lines 14–17, remoteBenefit), [j·n+s]: NearestCost(s,
	// j), or −Inf where s replicates j; 1 − h[s][j]; Demand[s][j].
	// costTo[i·n+s] is CostServer[s][i]. syncCols builds them when a cold
	// start or a warm refresh begins, and each accept updates its column
	// and its row's hit ratios.
	colNC, colMiss, colDem, costTo []float64
}

// newHybridState validates cfg and builds the state of a cold run.
// shared is the hit-ratio table the predictors memoize into — a previous
// round's, so its grid points are served instead of re-evaluated — or
// nil for a fresh one.
func newHybridState(sys *core.System, cfg HybridConfig, shared *lrumodel.SharedTable) (*hybridState, error) {
	n, m := sys.N(), sys.M()
	if len(cfg.Specs) != m {
		return nil, fmt.Errorf("placement: %d specs for %d sites", len(cfg.Specs), m)
	}
	if cfg.AvgObjectBytes <= 0 {
		return nil, fmt.Errorf("placement: AvgObjectBytes = %v", cfg.AvgObjectBytes)
	}
	if cfg.UpdateRates != nil && len(cfg.UpdateRates) != m {
		return nil, fmt.Errorf("placement: %d update rates for %d sites", len(cfg.UpdateRates), m)
	}
	kind, err := lrumodel.ParseModelKind(cfg.Model)
	if err != nil {
		return nil, err
	}
	if shared == nil {
		shared = lrumodel.NewSharedTable()
	}
	st := &hybridState{
		sys:         sys,
		cfg:         cfg,
		p:           core.NewPlacement(sys),
		model:       kind,
		shared:      shared,
		workers:     normWorkers(cfg.Parallelism, n),
		n:           n,
		m:           m,
		engineLabel: EngineLabel(false),
		sites:       make([][]int, n),
	}

	// Lines 1–5: build one model per server and the initial hit
	// ratios with the whole capacity as cache. visMass tracks the
	// summed popularity of the sites still traversing each server's
	// cache; replicating a site removes its traffic from the cache and
	// "the popularity of the rest of the objects is increased
	// accordingly" (§4).
	st.preds = make([]*lrumodel.Predictor, n)
	st.h = make([][]float64, n)
	st.visMass = make([]float64, n)
	// All N predictors share one hit-ratio table: the memoized
	// Equation (1) values depend only on the quantized (p, K) grid
	// point, the site's Zipf shape and the model kind, so servers reuse
	// each other's entries bit for bit instead of each paying the O(L)
	// evaluation. The test oracle (oracle_test.go) keeps per-predictor
	// memos, so the byte-identity suites double as an end-to-end proof
	// that sharing changes no values. Rows build in parallel: each owns
	// its predictor, and a grid point's value does not depend on which
	// row stores it first. An invalid row reports in row order, whichever
	// worker finishes first.
	errs := make([]error, n)
	fanOutRows(n, st.workers, func(i int) {
		pred, err := lrumodel.New(lrumodel.ModelConfig{
			Kind:           kind,
			Specs:          cfg.Specs,
			Weights:        sys.Demand[i],
			AvgObjectBytes: cfg.AvgObjectBytes,
			MaxCacheBytes:  sys.Capacity[i],
			Shared:         st.shared,
		})
		if err != nil {
			errs[i] = err
			return
		}
		st.preds[i] = pred
		st.h[i] = pred.HitRatios(st.p.Free(i))
		st.visMass[i] = 1
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// hitFn is the model hit ratio the objective is evaluated under.
func (st *hybridState) hitFn(i, j int) float64 {
	if st.p.Has(i, j) {
		return 0 // irrelevant: C(i,i)=0
	}
	return st.h[i][j]
}

// hybridObjective is the hybrid's full predicted objective: the cached
// read cost plus, when configured, the update-propagation cost.
func hybridObjective(p *core.Placement, hitFn core.HitRatioFunc, updateRates []float64) float64 {
	c := p.Cost(hitFn)
	if updateRates != nil {
		c += p.UpdateCost(updateRates)
	}
	return c
}

// None returns the pure-caching configuration: no replicas, all storage
// free for the cache. Its PredictedCost assumes no caching (callers that
// want the model-predicted cost use PredictCost).
func None(sys *core.System) *Result {
	p := core.NewPlacement(sys)
	return &Result{Placement: p, PredictedCost: p.Cost(core.ZeroHitRatio)}
}

// AdHoc reserves cacheFrac of every server's storage for the cache and
// runs GreedyGlobal on the remainder — the fixed-split strawman of §5.2
// ("what if we allocate a fixed percentage of the storage space to
// caching and run the greedy global replication algorithm for the
// rest?").
func AdHoc(sys *core.System, cacheFrac float64) (*Result, error) {
	if cacheFrac < 0 || cacheFrac > 1 {
		return nil, fmt.Errorf("placement: cacheFrac = %v", cacheFrac)
	}
	shrunk := *sys
	shrunk.Capacity = make([]int64, sys.N())
	for i, c := range sys.Capacity {
		shrunk.Capacity[i] = int64(float64(c) * (1 - cacheFrac))
	}
	inner := GreedyGlobal(&shrunk)

	// Replay the decisions onto a full-capacity placement so that Free
	// reports the true cache space (reserved fraction + slack).
	p := core.NewPlacement(sys)
	for _, s := range inner.Steps {
		mustReplicate(p, s.Server, s.Site)
	}
	return &Result{
		Placement:     p,
		PredictedCost: p.Cost(core.ZeroHitRatio),
		Steps:         inner.Steps,
	}, nil
}

// Random creates replicas at uniformly random feasible (server, site)
// pairs until none fits; an ablation baseline.
func Random(sys *core.System, r *xrand.Source) *Result {
	p := core.NewPlacement(sys)
	res := &Result{Placement: p}
	type pair struct{ i, j int }
	pairs := make([]pair, 0, sys.N()*sys.M())
	for i := 0; i < sys.N(); i++ {
		for j := 0; j < sys.M(); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	for _, pr := range pairs {
		if p.CanReplicate(pr.i, pr.j) {
			mustReplicate(p, pr.i, pr.j)
			res.Steps = append(res.Steps, Step{Server: pr.i, Site: pr.j})
		}
	}
	res.PredictedCost = p.Cost(core.ZeroHitRatio)
	return res
}

// Popularity fills each server with its locally most-requested sites
// first; an ablation baseline that ignores network position.
func Popularity(sys *core.System) *Result {
	p := core.NewPlacement(sys)
	res := &Result{Placement: p}
	for i := 0; i < sys.N(); i++ {
		order := sortSitesByDemand(sys.Demand[i])
		for _, j := range order {
			if p.CanReplicate(i, j) {
				mustReplicate(p, i, j)
				res.Steps = append(res.Steps, Step{Server: i, Site: j})
			}
		}
	}
	res.PredictedCost = p.Cost(core.ZeroHitRatio)
	return res
}

func sortSitesByDemand(demand []float64) []int {
	order := make([]int, len(demand))
	for j := range order {
		order[j] = j
	}
	// Insertion sort by descending demand: M is small (tens).
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && demand[order[b]] > demand[order[b-1]]; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	return order
}

// CostOptions parameterizes PredictCostOpts.
type CostOptions struct {
	// Specs carries the object-level statistics of every site.
	Specs []lrumodel.SiteSpec
	// AvgObjectBytes is ō, used to convert cache bytes to slots.
	AvgObjectBytes float64
	// Model selects the hit-ratio model ("" = eq1), as in
	// HybridConfig.Model.
	Model string
	// Warm, if non-nil, is a solve whose models the probe may reuse: the
	// controller prices its placements with the round's own WarmState.
	// Row i takes the solve's predictor when that predictor was built from
	// exactly p's demand row and capacity under the same Specs,
	// AvgObjectBytes and Model (every row of a cold solve on p's system,
	// the rebuilt rows of a warm repair); every other row builds a fresh
	// one against the solve's hit-ratio table. A predictor is a pure
	// function of its inputs and the table changes no bits, so the cost is
	// the one a nil Warm (a fresh private table) gives, bit for bit.
	Warm *WarmState
}

// PredictCostOpts evaluates the objective D of any placement under the
// selected analytical cache model, with each server's free space as
// its cache. This is the "Predicted" series of Figure 6.
//
// Rows build (or reuse) their models and hit ratios concurrently, one
// goroutine per row at a time across GOMAXPROCS workers, and their
// terms are summed afterwards in row order: each row's hit ratios are a
// pure function of its inputs, so the total is the serial sum, bit for
// bit.
func PredictCostOpts(p *core.Placement, opts CostOptions) (float64, error) {
	kind, err := lrumodel.ParseModelKind(opts.Model)
	if err != nil {
		return 0, err
	}
	sys := p.System()
	n, m := sys.N(), sys.M()
	var shared *lrumodel.SharedTable
	reuse := false
	if w := opts.Warm; w != nil {
		shared = w.st.shared
		reuse = w.st.n == n && w.st.model == kind && w.st.cfg.AvgObjectBytes == opts.AvgObjectBytes &&
			slices.Equal(w.st.cfg.Specs, opts.Specs)
	} else {
		shared = lrumodel.NewSharedTable()
	}
	hits := make([][]float64, n)
	errs := make([]error, n)
	fanOutRows(n, normWorkers(0, n), func(i int) {
		var pred *lrumodel.Predictor
		if reuse {
			pred = opts.Warm.rowModel(sys, i)
		}
		if pred == nil {
			if pred, errs[i] = lrumodel.New(lrumodel.ModelConfig{
				Kind:           kind,
				Specs:          opts.Specs,
				Weights:        sys.Demand[i],
				AvgObjectBytes: opts.AvgObjectBytes,
				MaxCacheBytes:  sys.Capacity[i],
				Shared:         shared,
			}); errs[i] != nil {
				return
			}
		}
		visible := make([]bool, m)
		for j := range visible {
			visible[j] = !p.Has(i, j)
		}
		hits[i] = pred.HitRatiosCond(visible, p.Free(i))
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total := 0.0
	for i, h := range hits {
		for j := 0; j < m; j++ {
			c := p.NearestCost(i, j)
			if c == 0 {
				continue
			}
			total += (1 - h[j]) * sys.Demand[i][j] * c
		}
	}
	return total, nil
}

// PredictCost is PredictCostOpts under the default eq1 model with a
// fresh memo table — the original fixed-signature entry point. It
// panics on invalid specs, as the predictor constructor always did.
func PredictCost(p *core.Placement, specs []lrumodel.SiteSpec, avgObjectBytes float64) float64 {
	total, err := PredictCostOpts(p, CostOptions{Specs: specs, AvgObjectBytes: avgObjectBytes})
	if err != nil {
		panic(err.Error())
	}
	return total
}

// mustReplicate applies a decision the algorithm has already validated
// with CanReplicate; an error here is a bug in the algorithm.
func mustReplicate(p *core.Placement, i, j int) {
	if err := p.Replicate(i, j); err != nil {
		panic(fmt.Sprintf("placement: internal error: %v", err))
	}
}
