package control

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"sync"
)

// Target is a running deployment the controller can re-place: the
// control plane's push to every edge in the daemon (clusterd), a
// ModelTarget in simulations and tests.
type Target interface {
	// Placement returns the placement currently routing requests.
	Placement() *core.Placement
	// SwapPlacement atomically replaces it; in-flight requests finish
	// against the snapshot they loaded.
	SwapPlacement(*core.Placement) error
}

// ModelTarget is the trivial in-memory Target used by the simulation
// harness and tests: a placement behind a mutex, no HTTP involved.
type ModelTarget struct {
	mu sync.Mutex
	p  *core.Placement
}

// NewModelTarget starts a model target at the given placement.
func NewModelTarget(p *core.Placement) *ModelTarget { return &ModelTarget{p: p} }

// Placement implements Target.
func (t *ModelTarget) Placement() *core.Placement {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
}

// SwapPlacement implements Target.
func (t *ModelTarget) SwapPlacement(p *core.Placement) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p = p
	return nil
}

// Controller defaults.
const (
	// DefaultHysteresis: a plan must improve the predicted objective by
	// at least 2% (net of transfer) before it is applied.
	DefaultHysteresis = 0.02
	// DefaultCooldownRounds: a site whose replicas just moved is frozen
	// for this many subsequent reconcile rounds.
	DefaultCooldownRounds = 2
	// DefaultTransferWeight prices replica movement into the objective:
	// hauling 1 GB·hop costs this many predicted hops/request of
	// sustained benefit before a plan breaks even.
	DefaultTransferWeight = 0.05
	// DefaultWarmMaxRounds: a cold re-solve is forced after this many
	// consecutive warm repairs, bounding how far the monotone warm
	// path can lag a shifting optimum (greedy repair only ever adds
	// replicas, so a periodic cold round is what removes placements the
	// demand no longer justifies).
	DefaultWarmMaxRounds = 32
)

// DemandSource is the estimator-shaped dependency the controller
// reconciles against. *Estimator is the implementation every deployment
// uses; the interface stays so a test can reconcile on exact demand.
// Roll closes the counting window once per reconcile round; Demand
// returns the normalized estimate.
type DemandSource interface {
	Roll() int64
	Demand() (demand [][]float64, ok bool)
	Observed() int64
	ServerRates() []float64
	SiteRates() []float64
	WindowTotals() []int64
}

// HealthView is the failure signal a deployment exposes to the
// controller: which edge servers are currently out of service and must
// get no replicas. clusterd.ControlPlane implements it from its active
// prober and its roster.
type HealthView interface {
	EjectedEdges() []int
}

// Config parameterizes a Controller.
type Config struct {
	// Base supplies the deployment's costs, capacities and site sizes;
	// its demand matrix is never read — estimated demand replaces it on
	// every reconcile (core.System.WithDemand).
	Base *core.System
	// Specs and AvgObjectBytes feed placement.Hybrid's analytical cache
	// model; both are demand-independent, so they stay valid as the
	// estimate evolves.
	Specs          []lrumodel.SiteSpec
	AvgObjectBytes float64
	// Model selects the analytical hit-ratio model every proposal and
	// cost probe is evaluated under ("eq1", "che", "random"; empty =
	// eq1). Validated by New; the normalized name is surfaced in Status,
	// Report and the reconcile audit ring.
	Model string
	// Target is the deployment to re-place.
	Target Target
	// Source replaces the demand estimate (a test seam). Leave nil to
	// have the controller build an *Estimator, reachable via
	// Estimator() for wiring into a request tap or report handler.
	Source DemandSource
	// Interval is the Run loop's reconcile cadence. Non-positive means
	// no periodic rounds: Run still serves Kick-triggered ones.
	Interval time.Duration
	// Health, when non-nil, is consulted at the start of every reconcile:
	// ejected edges are excluded from the placement proposal (their
	// capacity is zeroed in the optimizer's view and their replicas are
	// dropped from the applied placement), so demand shifts onto live
	// servers until the health tracker readmits them.
	Health HealthView
	// Hysteresis is the minimum net benefit — as a fraction of the
	// current placement's predicted cost — a plan needs before it is
	// applied. 0 selects DefaultHysteresis; negative disables (every
	// non-empty plan applies).
	Hysteresis float64
	// CooldownRounds freezes a site's replicas for this many reconcile
	// rounds after a plan changed them, so estimate noise cannot bounce
	// the same replica in and out. 0 selects DefaultCooldownRounds;
	// negative disables.
	CooldownRounds int
	// ChurnKick, when > 0, lets the catalog-churn signal force a
	// positive-benefit plan past the hysteresis bar: a round whose
	// demand source reports a site churn rate at or above this fraction
	// applies any plan with net benefit > 0, bar or no bar. Under a
	// dynamic catalog the placement staleness the churn causes is real
	// drift, not estimate noise — the thing hysteresis exists to damp.
	// 0 disables (the static-catalog behavior).
	ChurnKick float64
	// Metrics, when non-nil, receives the control_* series (reconcile
	// outcomes, replica churn, last benefit/transfer).
	Metrics *obs.Registry
	// Logf, when non-nil, receives one line per reconcile round.
	Logf func(format string, args ...any)
}

// Outcome classifies a reconcile round.
type Outcome string

// Reconcile outcomes.
const (
	// OutcomeApplied: the plan cleared hysteresis and was swapped in.
	OutcomeApplied Outcome = "applied"
	// OutcomeSkipped: a non-empty plan existed but its net benefit was
	// below the hysteresis threshold; it is kept as the pending plan.
	OutcomeSkipped Outcome = "skipped"
	// OutcomeNoop: the proposal matches the live placement.
	OutcomeNoop Outcome = "noop"
	// OutcomeNoSignal: no request has ever been observed; nothing to
	// estimate from.
	OutcomeNoSignal Outcome = "no-signal"
)

// Report describes one reconcile round.
type Report struct {
	Round          int64                `json:"round"`
	Outcome        Outcome              `json:"outcome"`
	WindowRequests int64                `json:"window_requests"`
	OldCost        float64              `json:"old_cost"`
	NewCost        float64              `json:"new_cost"`
	NetBenefit     float64              `json:"net_benefit"`
	Diff           placement.DiffResult `json:"diff"`
	// CreatesDeferred counts proposed creations withheld this round by
	// a site cool-down or by capacity after partial application.
	CreatesDeferred int `json:"creates_deferred"`
	// Engine labels the placement engine the round ran ("warm" for an
	// incremental repair); Model the hit-ratio model the proposal and
	// cost probes used; PlacementMs is the optimizer's wall time.
	Engine      string  `json:"engine,omitempty"`
	Model       string  `json:"model,omitempty"`
	PlacementMs float64 `json:"placement_ms"`
	// Excluded lists the edges the health view reported ejected, which
	// this round's proposal therefore placed nothing on.
	Excluded []int `json:"excluded,omitempty"`
}

// Status is the controller state snapshot served at /debug/control.
type Status struct {
	Rounds   int64 `json:"rounds"`
	Applied  int64 `json:"applied"`
	Skipped  int64 `json:"skipped"`
	Noops    int64 `json:"noops"`
	NoSignal int64 `json:"no_signal"`
	Replicas int   `json:"replicas"`
	Observed int64 `json:"observed_requests"`
	// Model is the configured hit-ratio model (normalized; "eq1" when
	// the config left it empty).
	Model string `json:"model,omitempty"`
	// Placement lists the sites replicated at each server, the live
	// routing state.
	Placement [][]int `json:"placement"`
	// Last is the most recent reconcile report, nil before the first.
	Last *Report `json:"last,omitempty"`
	// Pending is the most recent plan withheld by hysteresis, nil when
	// the last non-noop round applied.
	Pending *placement.DiffResult `json:"pending,omitempty"`
	// EdgeRates and SiteRates are EWMA requests/window.
	EdgeRates    []float64 `json:"edge_rates"`
	SiteRates    []float64 `json:"site_rates"`
	WindowTotals []int64   `json:"window_totals"`
	// StalePlacementFrac is the fraction of replicated sites whose
	// demand has been quiet for a full churn window — placement capacity
	// pinned to content the catalog has likely withdrawn. ChurnRate is
	// the demand source's per-window site birth+death fraction. Both are
	// zero when the source does not implement ChurnSource or has too
	// little roll history.
	StalePlacementFrac float64 `json:"stale_placement_frac"`
	ChurnRate          float64 `json:"churn_rate"`
}

// Controller closes the estimation → placement → swap loop.
type Controller struct {
	cfg Config
	est DemandSource
	// estConcrete is est when the controller built it (the Estimator()
	// accessor's return; nil when cfg.Source was set).
	estConcrete *Estimator
	kick        chan struct{}

	mu            sync.Mutex
	round         int64
	cooldownUntil []int64 // per site: round until which it is frozen
	last          *Report
	pending       *placement.DiffResult
	counts        map[Outcome]int64

	// warm is the solver state carried between reconcile rounds
	// (warm-start incremental re-placement); warmRounds counts the
	// consecutive warm repairs since the last cold solve.
	warm       *placement.WarmState
	warmRounds int

	// auditLog is the decision-audit ring (see audit.go): up to
	// auditRing ReconcileRecords, auditNext the overwrite cursor.
	auditLog  []ReconcileRecord
	auditNext int

	// metric handles, nil when cfg.Metrics is unset
	reconciles map[Outcome]*obs.Counter
	created    *obs.Counter
	dropped    *obs.Counter
	transfer   *obs.Counter // milli-GB·hops paid, integer counter
	placeWarm  *obs.Counter // rounds served by warm incremental repair
	placeCold  *obs.Counter // rounds that ran a cold solve
}

// New validates cfg and builds a controller (not yet running; use Run,
// or call Reconcile directly from a harness).
func New(cfg Config) (*Controller, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("control: nil base system")
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("control: nil target")
	}
	if len(cfg.Specs) != cfg.Base.M() {
		return nil, fmt.Errorf("control: %d specs for %d sites", len(cfg.Specs), cfg.Base.M())
	}
	if cfg.AvgObjectBytes <= 0 {
		return nil, fmt.Errorf("control: AvgObjectBytes = %v", cfg.AvgObjectBytes)
	}
	kind, err := lrumodel.ParseModelKind(cfg.Model)
	if err != nil {
		return nil, err
	}
	cfg.Model = string(kind) // normalize "" to "eq1" for display
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = DefaultHysteresis
	}
	if cfg.CooldownRounds == 0 {
		cfg.CooldownRounds = DefaultCooldownRounds
	}
	est := cfg.Source
	var concrete *Estimator
	if est == nil {
		if concrete, err = NewEstimator(EstimatorConfig{Servers: cfg.Base.N(), Sites: cfg.Base.M()}); err != nil {
			return nil, err
		}
		est = concrete
	}
	c := &Controller{
		cfg:           cfg,
		est:           est,
		estConcrete:   concrete,
		kick:          make(chan struct{}, 1),
		cooldownUntil: make([]int64, cfg.Base.M()),
		counts:        make(map[Outcome]int64),
	}
	if reg := cfg.Metrics; reg != nil {
		c.reconciles = make(map[Outcome]*obs.Counter)
		for _, o := range []Outcome{OutcomeApplied, OutcomeSkipped, OutcomeNoop, OutcomeNoSignal} {
			c.reconciles[o] = reg.Counter("control_reconciles_total",
				"Reconcile rounds by outcome.", obs.Labels{"outcome": string(o)})
		}
		c.created = reg.Counter("control_replicas_created_total",
			"Replicas created by applied plans.", nil)
		c.dropped = reg.Counter("control_replicas_dropped_total",
			"Replicas dropped by applied plans.", nil)
		c.transfer = reg.Counter("control_transfer_milli_gbhops_total",
			"Transfer volume paid by applied plans, in 1/1000 GB·hops.", nil)
		c.placeWarm = reg.Counter("control_placement_rounds_total",
			"Placement rounds by engine path.", obs.Labels{"path": "warm"})
		c.placeCold = reg.Counter("control_placement_rounds_total",
			"Placement rounds by engine path.", obs.Labels{"path": "cold"})
		reg.GaugeFunc("control_replicas", "Replicas in the live placement.", nil,
			func() float64 { return float64(cfg.Target.Placement().Replicas()) })
		reg.GaugeFunc("control_last_net_benefit", "Net benefit of the last evaluated plan.", nil,
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.last == nil {
					return 0
				}
				return c.last.NetBenefit
			})
	}
	return c, nil
}

// Estimator returns the estimator feeding this controller; wire its
// Observe into the deployment's request tap. It returns nil when the
// controller was built on a custom Config.Source — feed that source
// directly instead.
func (c *Controller) Estimator() *Estimator { return c.estConcrete }

// Run reconciles on cfg.Interval — and immediately on every Kick —
// until ctx is cancelled. With a non-positive interval the loop is
// kick-driven only.
func (c *Controller) Run(ctx context.Context) {
	var tick <-chan time.Time
	if c.cfg.Interval > 0 {
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case <-c.kick:
		}
		if _, err := c.Reconcile(); err != nil && c.cfg.Logf != nil {
			c.cfg.Logf("control: reconcile failed: %v", err)
		}
	}
}

// Kick requests an out-of-band reconcile from the Run loop without
// waiting for the next tick — the failure-reactive path: wire it to the
// deployment's health-change hook so an ejection re-places immediately.
// Kicks coalesce; Kick never blocks. Without a running Run loop a kick
// sits until one starts (call Reconcile directly in harnesses).
func (c *Controller) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Unfreeze clears every site cool-down so the next reconcile may move
// anything. Call it when a component recovers: the cool-downs exist to
// damp estimate noise, and a real topology change should not wait them
// out.
func (c *Controller) Unfreeze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for j := range c.cooldownUntil {
		c.cooldownUntil[j] = 0
	}
}

// Reconcile runs one control round: close the estimation window,
// re-place against the estimate, diff, price, and apply if the plan
// clears hysteresis. Safe for concurrent use (rounds serialize).
func (c *Controller) Reconcile() (*Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	// lap charges the time since the previous lap to one phase.
	mark := start
	lap := func(phase *float64) {
		now := time.Now()
		*phase = float64(now.Sub(mark)) / float64(time.Millisecond)
		mark = now
	}
	c.round++
	rep := &Report{Round: c.round, WindowRequests: c.est.Roll()}
	rec := ReconcileRecord{
		Round:          c.round,
		When:           start.UTC().Format(time.RFC3339Nano),
		WindowRequests: rep.WindowRequests,
		Model:          c.cfg.Model,
	}
	phase := &rec.PhaseMs

	demand, ok := c.est.Demand()
	if !ok {
		lap(&phase.Estimate)
		return c.finish(rep, rec, start, OutcomeNoSignal), nil
	}
	rec.DemandHash = demandHash(demand)
	// Catalog-churn signal: how fast sites are being born and dying in
	// the demand source's view, and what fraction of the live placement
	// is pinned to sites that have gone quiet.
	if cs, ok := c.est.(ChurnSource); ok {
		st := cs.SiteChurn()
		rec.ChurnRate = st.Rate
		if ages := cs.SiteAges(); ages != nil {
			rec.StalePlacementFrac = stalePlacementFrac(c.cfg.Target.Placement(), ages, st.Window)
		}
	}
	lap(&phase.Estimate)
	sys, err := c.cfg.Base.WithDemand(demand)
	if err != nil {
		c.round--
		return nil, err
	}

	// Health exclusion: the optimizer sees ejected edges with zero
	// capacity (so their demand is redistributed), while the applied
	// placement is still built on the capacity-correct system — the
	// target's SwapPlacement checks capacities against the deployment.
	var down []bool
	if c.cfg.Health != nil {
		if ejected := c.cfg.Health.EjectedEdges(); len(ejected) > 0 {
			down = make([]bool, sys.N())
			for _, i := range ejected {
				if i >= 0 && i < len(down) {
					down[i] = true
					rep.Excluded = append(rep.Excluded, i)
				}
			}
		}
	}
	view := sys
	if down != nil {
		view, err = sys.WithServersDown(down)
		if err != nil {
			c.round--
			return nil, err
		}
	}
	lap(&phase.System)
	prop, err := c.propose(view, &rec)
	if err != nil {
		c.round--
		return nil, err
	}
	for _, s := range prop.Steps {
		if len(rec.Proposed) == auditProposedCap {
			break
		}
		rec.Proposed = append(rec.Proposed, PlanStep{Server: s.Server, Site: s.Site, Benefit: s.Benefit})
	}
	lap(&phase.Propose)

	cur := c.cfg.Target.Placement()
	next, deferred, frozen, err := c.plan(sys, cur, prop, down)
	if err != nil {
		c.round--
		return nil, err
	}
	rep.CreatesDeferred = deferred
	rec.FrozenSites = frozen
	diff := placement.Diff(cur, next)
	lap(&phase.Plan)
	if diff.Empty() {
		return c.finish(rep, rec, start, OutcomeNoop), nil
	}
	rep.Diff = diff

	curOn, err := cur.RebuildOn(sys)
	if err != nil {
		c.round--
		return nil, err
	}
	// Both probes price on sys with the round's own solve: a row whose
	// predictor the solve built from sys's demand row and capacity (every
	// row of a cold round with no edge excluded, the rebuilt rows of a
	// warm one) is reused, and every other row is built against the
	// solve's hit-ratio table. The costs are a fresh probe's, bit for bit.
	costOpts := placement.CostOptions{
		Specs:          c.cfg.Specs,
		AvgObjectBytes: c.cfg.AvgObjectBytes,
		Model:          c.cfg.Model,
		Warm:           c.warm,
	}
	rep.OldCost, err = placement.PredictCostOpts(curOn, costOpts)
	if err != nil {
		c.round--
		return nil, err
	}
	rep.NewCost, err = placement.PredictCostOpts(next, costOpts)
	if err != nil {
		c.round--
		return nil, err
	}
	rep.NetBenefit = rep.OldCost - rep.NewCost
	rep.NetBenefit -= DefaultTransferWeight * diff.TransferGBHops
	if c.cfg.Hysteresis > 0 {
		rec.HysteresisBar = c.cfg.Hysteresis * rep.OldCost
	}
	lap(&phase.Price)
	if c.cfg.Hysteresis > 0 && rep.NetBenefit < rec.HysteresisBar {
		// Churn override: when the catalog is turning over fast enough,
		// the staleness behind this plan is real drift rather than the
		// estimate noise hysteresis exists to damp — apply any plan that
		// is an improvement at all.
		if c.cfg.ChurnKick > 0 && rec.ChurnRate >= c.cfg.ChurnKick && rep.NetBenefit > 0 {
			rec.ChurnForced = true
		} else {
			c.pending = &diff
			return c.finish(rep, rec, start, OutcomeSkipped), nil
		}
	}

	if err := c.cfg.Target.SwapPlacement(next); err != nil {
		c.round--
		return nil, err
	}
	lap(&phase.Push)
	if c.cfg.CooldownRounds > 0 {
		until := c.round + int64(c.cfg.CooldownRounds)
		for _, r := range diff.Created {
			c.cooldownUntil[r.Site] = until
		}
		for _, r := range diff.Dropped {
			c.cooldownUntil[r.Site] = until
		}
	}
	c.pending = nil
	if c.created != nil {
		c.created.Add(int64(len(diff.Created)))
		c.dropped.Add(int64(len(diff.Dropped)))
		c.transfer.Add(int64(diff.TransferGBHops * 1000))
	}
	return c.finish(rep, rec, start, OutcomeApplied), nil
}

// propose runs the placement optimizer for one round: it repairs the
// previous round's solver state in place (placement.Incremental, which
// falls back to a cold solve on large demand drift or topology change,
// and starts cold from a nil state) and fills the audit record's engine
// fields. Caller holds c.mu.
func (c *Controller) propose(view *core.System, rec *ReconcileRecord) (*placement.Result, error) {
	hcfg := placement.HybridConfig{
		Specs:          c.cfg.Specs,
		AvgObjectBytes: c.cfg.AvgObjectBytes,
		Model:          c.cfg.Model,
		Explain: func(e placement.ExplainStep) {
			if len(rec.EngineSteps) < auditEngineStepsCap {
				rec.EngineSteps = append(rec.EngineSteps, e)
			}
		},
	}
	start := time.Now()

	if c.warmRounds >= DefaultWarmMaxRounds {
		c.warm = nil // force a periodic cold re-solve
	}
	prop, warm, stats, err := placement.Incremental(c.warm, view, placement.IncrementalConfig{HybridConfig: hcfg})
	c.warm = warm // nil on error: the previous state was consumed, do not reuse it half-repaired
	if err != nil {
		return nil, err
	}
	rec.Warm = &stats
	rec.PlacementMs = float64(time.Since(start)) / float64(time.Millisecond)
	rec.Engine = placement.EngineLabel(stats.Warm)
	if stats.Warm {
		c.warmRounds++
		if c.placeWarm != nil {
			c.placeWarm.Inc()
		}
	} else {
		c.warmRounds = 0
		if c.placeCold != nil {
			c.placeCold.Inc()
		}
	}
	return prop, nil
}

// finish records the round's outcome and its audit record under the
// held mutex.
func (c *Controller) finish(rep *Report, rec ReconcileRecord, start time.Time, o Outcome) *Report {
	rep.Outcome = o
	rep.Engine = rec.Engine
	rep.Model = rec.Model
	rep.PlacementMs = rec.PlacementMs
	c.last = rep
	c.counts[o]++
	rec.Outcome = o
	rec.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)
	rec.OldCost = rep.OldCost
	rec.NewCost = rep.NewCost
	rec.NetBenefit = rep.NetBenefit
	rec.TransferGBHops = rep.Diff.TransferGBHops
	rec.Created = rep.Diff.Created
	rec.Dropped = rep.Diff.Dropped
	rec.ExcludedEdges = rep.Excluded
	rec.CreatesDeferred = rep.CreatesDeferred
	rec.Verdict = rec.verdict(o)
	c.recordAudit(rec)
	if c.reconciles != nil {
		c.reconciles[o].Inc()
	}
	if c.cfg.Logf != nil {
		c.cfg.Logf("control: round %d %s: +%d/-%d replicas, net benefit %.4f (old %.4f → new %.4f), transfer %.3f GB·hops",
			rep.Round, o, len(rep.Diff.Created), len(rep.Diff.Dropped),
			rep.NetBenefit, rep.OldCost, rep.NewCost, rep.Diff.TransferGBHops)
	}
	return rep
}

// plan turns the hybrid proposal into the placement to apply: sites in
// cool-down keep their current replica column, everything else follows
// the proposal. Survivors are placed first (always feasible — they are
// a subset of the current placement), then proposed creations in the
// algorithm's own benefit order, skipping any that no longer fit the
// mixed column's capacity; skipped creations are deferred to a later
// round, never silently forgotten (they reappear in the next proposal).
// Nothing is placed on a down server, cool-down or not: its replicas
// are unreachable, and dropping them lets Nearest route around it.
// frozenSites lists the sites cool-down excluded from movement this
// round, for the audit record.
func (c *Controller) plan(sys *core.System, cur *core.Placement, prop *placement.Result, down []bool) (p *core.Placement, deferred int, frozenSites []int, err error) {
	n, m := sys.N(), sys.M()
	frozen := make([]bool, m)
	for j := 0; j < m; j++ {
		frozen[j] = c.cfg.CooldownRounds > 0 && c.round <= c.cooldownUntil[j]
		if frozen[j] {
			frozenSites = append(frozenSites, j)
		}
	}
	next := core.NewPlacement(sys)
	for i := 0; i < n; i++ {
		if down != nil && down[i] {
			continue
		}
		for j := 0; j < m; j++ {
			if !cur.Has(i, j) {
				continue
			}
			if frozen[j] || prop.Placement.Has(i, j) {
				if err := next.Replicate(i, j); err != nil {
					return nil, 0, nil, fmt.Errorf("control: survivor (%d,%d): %w", i, j, err)
				}
			}
		}
	}
	for _, s := range prop.Steps {
		if down != nil && down[s.Server] {
			continue
		}
		if frozen[s.Site] {
			deferred++
			continue
		}
		if next.Has(s.Server, s.Site) {
			continue // survivor, already placed
		}
		if !next.CanReplicate(s.Server, s.Site) {
			deferred++
			continue
		}
		if err := next.Replicate(s.Server, s.Site); err != nil {
			return nil, 0, nil, fmt.Errorf("control: create (%d,%d): %w", s.Server, s.Site, err)
		}
	}
	return next, deferred, frozenSites, nil
}

// Status snapshots the controller for the debug endpoint.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.cfg.Target.Placement()
	sites := make([][]int, c.cfg.Base.N())
	for i := range sites {
		sites[i] = []int{}
		for j := 0; j < c.cfg.Base.M(); j++ {
			if p.Has(i, j) {
				sites[i] = append(sites[i], j)
			}
		}
	}
	var churnRate, staleFrac float64
	if cs, ok := c.est.(ChurnSource); ok {
		st := cs.SiteChurn()
		churnRate = st.Rate
		if ages := cs.SiteAges(); ages != nil {
			staleFrac = stalePlacementFrac(p, ages, st.Window)
		}
	}
	return Status{
		Rounds:             c.round,
		Applied:            c.counts[OutcomeApplied],
		Skipped:            c.counts[OutcomeSkipped],
		Noops:              c.counts[OutcomeNoop],
		NoSignal:           c.counts[OutcomeNoSignal],
		Replicas:           p.Replicas(),
		Observed:           c.est.Observed(),
		Model:              c.cfg.Model,
		Placement:          sites,
		Last:               c.last,
		Pending:            c.pending,
		EdgeRates:          c.est.ServerRates(),
		SiteRates:          c.est.SiteRates(),
		WindowTotals:       c.est.WindowTotals(),
		StalePlacementFrac: staleFrac,
		ChurnRate:          churnRate,
	}
}

// stalePlacementFrac is the staleness metric: of the sites holding at
// least one replica in p, the fraction whose demand has been quiet (or
// never observed) for at least window closed rolls. Those replicas pin
// storage and placement decisions to content the catalog has likely
// withdrawn — the dead weight a dynamic catalog accumulates.
func stalePlacementFrac(p *core.Placement, ages []int64, window int) float64 {
	n, m := p.System().N(), p.System().M()
	replicated, stale := 0, 0
	for j := 0; j < m; j++ {
		has := false
		for i := 0; i < n; i++ {
			if p.Has(i, j) {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		replicated++
		if j >= len(ages) || ages[j] < 0 || ages[j] >= int64(window) {
			stale++
		}
	}
	if replicated == 0 {
		return 0
	}
	return float64(stale) / float64(replicated)
}
