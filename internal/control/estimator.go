// Package control is the online control plane of the CDN: it closes the
// loop between the live request stream and the hybrid placement
// algorithm. The paper argues (§2.1) that replica placement "should
// remain fairly static" because migration is expensive while caching
// adapts for free — which is exactly why a running deployment needs a
// controller rather than a one-shot offline computation: demand drifts,
// and somebody has to decide when the drift has grown large enough that
// paying the transfer cost of a re-placement beats serving the old one.
//
// The loop has three parts:
//
//   - an Estimator that turns per-request taps (httpcdn's
//     EngineConfig.RequestTap, or any other feed) into a smoothed
//     per-server × per-site demand estimate — sliding-window counters
//     folded into an EWMA at every reconcile round;
//   - a Controller that periodically re-runs placement.Hybrid against
//     the estimated demand, diffs the proposal against the live
//     placement (placement.Diff), prices the replica transfers, and
//     applies the plan only when its net benefit clears a hysteresis
//     threshold — with a per-site cool-down so placements never thrash;
//   - a debug surface: obs metrics and the /debug/control endpoint
//     (Handler), which cmd/cdnctl queries.
//
// Applying a plan swaps every edge's routing table (Target.SwapPlacement;
// the daemon pushes the new placement to its edges) while requests are
// in flight.
package control

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// EstimatorConfig sizes an Estimator.
type EstimatorConfig struct {
	// Servers (N) and Sites (M) fix the demand matrix shape.
	Servers, Sites int
}

// Estimator constants.
const (
	// DefaultAlpha is the EWMA weight of the newest window: after a
	// roll, rate = α·window + (1−α)·rate. A higher α adapts faster but
	// passes more sampling noise into the placement run.
	DefaultAlpha = 0.5
	// DefaultWindows is the length of the sliding-window ring kept for
	// the requests-per-window view in Status.
	DefaultWindows = 8
	// DefaultChurnWindow is how many recent rolls the churn signal looks
	// at: a site first seen inside the window is a birth, a site seen
	// before but quiet for the whole window is a death.
	DefaultChurnWindow = 4
)

// ChurnStats is the per-site catalog-activity signal a demand source
// derives from its roll history. Under a dynamic catalog (see
// workload.DynamicStream) sites appear and fall silent; the controller
// uses the rate to decide when placement staleness outweighs estimate
// noise.
type ChurnStats struct {
	// Births counts sites whose first-ever traffic arrived within the
	// last Window rolls; Deaths counts sites seen before the window with
	// no traffic inside it; Active counts sites with any traffic inside
	// it.
	Births, Deaths, Active int
	// Rate is (Births+Deaths) / sites ever seen — the per-window catalog
	// turnover fraction. Zero until more than Window rolls of history
	// exist (a cold estimator sees every site as newborn).
	Rate float64
	// Window is the roll horizon the stats were computed over.
	Window int
}

// ChurnSource is the optional interface a DemandSource implements when
// it tracks per-site activity history. *Estimator implements it; the
// controller type-asserts and degrades gracefully when the source does
// not.
type ChurnSource interface {
	// SiteChurn computes birth/death stats over the default churn
	// window.
	SiteChurn() ChurnStats
	// SiteAges returns, per site, the number of closed rolls since the
	// site last had traffic: 0 = active in the latest window, -1 = never
	// seen.
	SiteAges() []int64
}

// Estimator estimates the per-server × per-site request-rate matrix
// r_j^(i) from a live request stream. Observe is lock-free (one atomic
// add) and safe to call from every serving goroutine; Roll folds the
// current window into the EWMA and is called by the controller once per
// reconcile round.
type Estimator struct {
	n, m    int
	counts  []atomic.Int64 // current window, n*m row-major
	observe atomic.Int64   // requests ever observed

	mu      sync.Mutex
	rates   []float64 // EWMA requests/window per cell, n*m
	window  []int64   // ring of recent window totals
	rolls   int64     // completed Roll calls
	rateSum float64   // Σ rates, maintained at roll time
	// firstSeen/lastSeen record, per site, the 1-based roll index of the
	// first and most recent window with any traffic (0 = never) — the
	// birth/last-seen tracking behind the churn signal.
	firstSeen, lastSeen []int64
	siteTot             []int64 // per-roll scratch, reused
}

// NewEstimator builds an estimator for an N-server, M-site deployment.
func NewEstimator(cfg EstimatorConfig) (*Estimator, error) {
	if cfg.Servers < 1 || cfg.Sites < 1 {
		return nil, fmt.Errorf("control: estimator for %d servers, %d sites", cfg.Servers, cfg.Sites)
	}
	return &Estimator{
		n:         cfg.Servers,
		m:         cfg.Sites,
		counts:    make([]atomic.Int64, cfg.Servers*cfg.Sites),
		rates:     make([]float64, cfg.Servers*cfg.Sites),
		window:    make([]int64, 0, DefaultWindows),
		firstSeen: make([]int64, cfg.Sites),
		lastSeen:  make([]int64, cfg.Sites),
		siteTot:   make([]int64, cfg.Sites),
	}, nil
}

// Observe records one request issued at server for site. Out-of-range
// indices are dropped (a tap must never crash the serving path).
func (e *Estimator) Observe(server, site int) { e.ObserveN(server, site, 1) }

// ObserveN records k requests at once (batch feeds, tests). Counts
// saturate at math.MaxInt64 instead of wrapping, so no feed can turn a
// window, the estimate or Observed negative.
func (e *Estimator) ObserveN(server, site int, k int64) {
	if server < 0 || server >= e.n || site < 0 || site >= e.m || k <= 0 {
		return
	}
	addSat(&e.counts[server*e.m+site], k)
	addSat(&e.observe, k)
}

// satAdd returns a+b for non-negative a and b, or math.MaxInt64 where
// the sum overflows.
func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// addSat atomically adds k ≥ 0 to c, saturating like satAdd.
func addSat(c *atomic.Int64, k int64) {
	for {
		old := c.Load()
		if c.CompareAndSwap(old, satAdd(old, k)) {
			return
		}
	}
}

// Observed returns the total requests ever observed.
func (e *Estimator) Observed() int64 { return e.observe.Load() }

// Roll closes the current counting window: every cell's count is folded
// into its EWMA rate and the window total is pushed onto the sliding
// ring. The first roll seeds the EWMA with the raw window (no cold-start
// bias toward zero). It returns the closed window's request total.
func (e *Estimator) Roll() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	sum := 0.0
	first := e.rolls == 0
	for j := range e.siteTot {
		e.siteTot[j] = 0
	}
	for c := range e.counts {
		v := e.counts[c].Swap(0)
		total = satAdd(total, v)
		e.siteTot[c%e.m] = satAdd(e.siteTot[c%e.m], v)
		if first {
			e.rates[c] = float64(v)
		} else {
			e.rates[c] = DefaultAlpha*float64(v) + (1-DefaultAlpha)*e.rates[c]
		}
		sum += e.rates[c]
	}
	e.rateSum = sum
	e.rolls++
	for j, v := range e.siteTot {
		if v > 0 {
			if e.firstSeen[j] == 0 {
				e.firstSeen[j] = e.rolls
			}
			e.lastSeen[j] = e.rolls
		}
	}
	if len(e.window) == cap(e.window) {
		copy(e.window, e.window[1:])
		e.window = e.window[:len(e.window)-1]
	}
	e.window = append(e.window, total)
	return total
}

// Rolls returns the number of completed windows.
func (e *Estimator) Rolls() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rolls
}

// Demand returns the EWMA rate matrix normalized to ΣΣ = 1 — the shape
// core.System.Demand expects. ok is false while no request has ever
// been folded in (the controller skips reconciling on no signal).
func (e *Estimator) Demand() (demand [][]float64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rateSum <= 0 {
		return nil, false
	}
	demand = make([][]float64, e.n)
	for i := 0; i < e.n; i++ {
		row := make([]float64, e.m)
		copy(row, e.rates[i*e.m:(i+1)*e.m])
		for j := range row {
			row[j] /= e.rateSum
		}
		demand[i] = row
	}
	return demand, true
}

// ServerRates returns each server's EWMA requests/window — the per-edge
// rate view Status exposes.
func (e *Estimator) ServerRates() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]float64, e.n)
	for i := 0; i < e.n; i++ {
		for j := 0; j < e.m; j++ {
			out[i] += e.rates[i*e.m+j]
		}
	}
	return out
}

// SiteRates returns each site's EWMA requests/window.
func (e *Estimator) SiteRates() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]float64, e.m)
	for i := 0; i < e.n; i++ {
		for j := 0; j < e.m; j++ {
			out[j] += e.rates[i*e.m+j]
		}
	}
	return out
}

// WindowTotals returns the sliding ring of recent per-window request
// totals, oldest first.
func (e *Estimator) WindowTotals() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int64(nil), e.window...)
}

// SiteChurn implements ChurnSource: birth/death stats over the default
// churn window.
func (e *Estimator) SiteChurn() ChurnStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := ChurnStats{Window: DefaultChurnWindow}
	if e.rolls <= DefaultChurnWindow {
		// Cold start: with less history than one window, every site
		// looks newborn; report zero churn rather than an artifact.
		return st
	}
	// Genesis is the roll traffic first arrived anywhere. An estimator
	// that rolled while the system idled (cluster booting, load not
	// started) would otherwise count the whole catalog as newborn once
	// the window slides past the idle prefix — the clock that matters
	// is rolls since first traffic, not rolls since construction.
	genesis := int64(0)
	for _, f := range e.firstSeen {
		if f > 0 && (genesis == 0 || f < genesis) {
			genesis = f
		}
	}
	if genesis == 0 || e.rolls-genesis <= DefaultChurnWindow {
		return st
	}
	horizon := e.rolls - DefaultChurnWindow
	ever := 0
	for j, first := range e.firstSeen {
		if first == 0 {
			continue
		}
		ever++
		switch last := e.lastSeen[j]; {
		case last > horizon:
			st.Active++
			if first > horizon {
				st.Births++
			}
		case last > horizon-DefaultChurnWindow:
			// Went quiet within the previous window: a recent death.
			// Sites dead longer than that stop counting toward the rate
			// (they are stale placement, not ongoing churn).
			st.Deaths++
		}
	}
	if ever > 0 {
		st.Rate = float64(st.Births+st.Deaths) / float64(ever)
	}
	return st
}

// SiteAges implements ChurnSource: rolls since each site's last traffic
// (0 = active in the latest window, -1 = never seen). It returns nil
// until more than one churn window of roll history exists — a cold
// estimator cannot distinguish a dead site from one it has not watched
// long enough.
func (e *Estimator) SiteAges() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rolls <= DefaultChurnWindow {
		return nil
	}
	out := make([]int64, e.m)
	for j, l := range e.lastSeen {
		if l == 0 {
			out[j] = -1
			continue
		}
		out[j] = e.rolls - l
	}
	return out
}

// Deprecated: use NewEstimator; the demand estimate is one Estimator.
// This checks shards ≥ 1 and vnodes ≥ 0 and returns NewEstimator(cfg).
// It stays only for the benchmark's estimator probe, until ROADMAP item
// 6(c) deletes it.
func NewShardedEstimator(cfg EstimatorConfig, shards, vnodes int) (*Estimator, error) {
	if shards < 1 {
		return nil, fmt.Errorf("control: %d estimator shards", shards)
	}
	if vnodes < 0 {
		return nil, fmt.Errorf("control: %d vnodes per shard", vnodes)
	}
	return NewEstimator(cfg)
}
