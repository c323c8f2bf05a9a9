package control

import (
	"fmt"
	"math"

	"repro/internal/placement"
)

// auditRing is how many reconcile records the controller retains; old
// records are overwritten FIFO. 64 rounds at a 10s interval is ~10
// minutes of decision history.
const auditRing = 64

// auditEngineStepsCap bounds the per-record engine explain trail so a
// large proposal cannot bloat the ring.
const auditEngineStepsCap = 256

// auditProposedCap bounds the recorded candidate plan for the same
// reason (the full proposal reappears next round anyway).
const auditProposedCap = 128

// PlanStep is one proposed replica creation and the marginal benefit
// the optimizer assigned it — the per-site price/benefit column of the
// audit record.
type PlanStep struct {
	Server  int     `json:"server"`
	Site    int     `json:"site"`
	Benefit float64 `json:"benefit"`
}

// ReconcileRecord explains one reconcile round end to end: what the
// controller saw (demand hash, window, exclusions), what the optimizer
// proposed (candidate plan, engine explain trail), how the plan was
// priced (costs, transfer, hysteresis bar) and what was decided
// (verdict). Served at /debug/control/audit, newest last.
type ReconcileRecord struct {
	Round int64  `json:"round"`
	When  string `json:"when"` // RFC3339Nano, UTC
	// DurationMs is the round's wall time, the push to the target
	// included: the record is finished after SwapPlacement returns.
	// PhaseMs splits it by phase.
	DurationMs float64 `json:"duration_ms"`
	PhaseMs    PhaseMs `json:"phase_ms"`
	Outcome    Outcome `json:"outcome"`
	// Verdict is the human-readable why behind Outcome, with the
	// numbers that decided it.
	Verdict string `json:"verdict"`
	// DemandHash fingerprints the demand estimate the round optimized
	// against (FNV-1a over the matrix's float bits): identical hashes
	// across rounds mean the estimator saw no movement.
	DemandHash     string  `json:"demand_hash,omitempty"`
	WindowRequests int64   `json:"window_requests"`
	OldCost        float64 `json:"old_cost"`
	NewCost        float64 `json:"new_cost"`
	NetBenefit     float64 `json:"net_benefit"`
	TransferGBHops float64 `json:"transfer_gb_hops"`
	// HysteresisBar is the net benefit the plan had to clear
	// (Hysteresis × OldCost; 0 when hysteresis is disabled or the round
	// ended before pricing).
	HysteresisBar float64 `json:"hysteresis_bar"`
	// Proposed is the optimizer's creation sequence with benefits,
	// capped at auditProposedCap entries.
	Proposed []PlanStep `json:"proposed,omitempty"`
	// Created and Dropped are the diff the round evaluated (and, when
	// applied, executed).
	Created []placement.Replica `json:"created,omitempty"`
	Dropped []placement.Replica `json:"dropped,omitempty"`
	// FrozenSites lists sites excluded from movement by cool-down;
	// ExcludedEdges the edges the health view reported ejected.
	FrozenSites     []int `json:"frozen_sites,omitempty"`
	ExcludedEdges   []int `json:"excluded_edges,omitempty"`
	CreatesDeferred int   `json:"creates_deferred"`
	// EngineSteps is the placement engine's per-step explain trail
	// (heap pops, stale re-evaluations, ...), capped at
	// auditEngineStepsCap entries.
	EngineSteps []placement.ExplainStep `json:"engine_steps,omitempty"`
	// Engine labels the placement engine the round ran: "warm" for an
	// incremental repair, "lazy" for a cold solve.
	Engine string `json:"engine,omitempty"`
	// Model is the hit-ratio model the round's proposal and cost
	// probes were evaluated under ("eq1", "che", "random").
	Model string `json:"model,omitempty"`
	// PlacementMs is the optimizer's wall time within the round — the
	// number the warm-vs-cold speedup claims are audited against.
	PlacementMs float64 `json:"placement_ms"`
	// StalePlacementFrac is the fraction of replicated sites whose
	// demand had been quiet for a full churn window when the round
	// started; ChurnRate the demand source's per-window site turnover
	// fraction. ChurnForced marks a round the churn signal pushed past
	// the hysteresis bar (see Config.ChurnKick).
	StalePlacementFrac float64 `json:"stale_placement_frac"`
	ChurnRate          float64 `json:"churn_rate"`
	ChurnForced        bool    `json:"churn_forced,omitempty"`
	// Warm details the warm-start decision: dirty-row counts, measured
	// drift, fallback reason. Nil when warm start is disabled.
	Warm *placement.IncrementalStats `json:"warm,omitempty"`
}

// PhaseMs is a reconcile round's wall time by phase, in milliseconds.
// Estimate closes the counting window and reads the demand estimate;
// System builds the round's system and its health view; Propose runs
// the placement engine; Plan applies cool-downs and diffs against the
// live placement; Price runs the two cost probes; Push swaps the plan
// into the target, which for the control plane means posting it to
// every edge. A phase the round never reached reads 0.
type PhaseMs struct {
	Estimate float64 `json:"estimate"`
	System   float64 `json:"system"`
	Propose  float64 `json:"propose"`
	Plan     float64 `json:"plan"`
	Price    float64 `json:"price"`
	Push     float64 `json:"push"`
}

// AuditPage is the JSON document served at /debug/control/audit.
type AuditPage struct {
	// Records holds up to auditRing reconcile records, oldest first.
	Records []ReconcileRecord `json:"records"`
}

// demandHash fingerprints a demand matrix: FNV-1a over the row-major
// float64 bit patterns, rendered as 16 hex digits.
func demandHash(demand [][]float64) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, row := range demand {
		for _, v := range row {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (bits >> s) & 0xff
				h *= prime64
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}

// recordAudit pushes one record into the ring; caller holds c.mu.
func (c *Controller) recordAudit(rec ReconcileRecord) {
	if len(c.auditLog) < auditRing {
		c.auditLog = append(c.auditLog, rec)
		return
	}
	c.auditLog[c.auditNext] = rec
	c.auditNext = (c.auditNext + 1) % auditRing
}

// Audit snapshots the retained reconcile records, oldest first.
func (c *Controller) Audit() []ReconcileRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReconcileRecord, 0, len(c.auditLog))
	out = append(out, c.auditLog[c.auditNext:]...)
	out = append(out, c.auditLog[:c.auditNext]...)
	return out
}

// verdict renders the human-readable decision line for an outcome.
func (rec *ReconcileRecord) verdict(o Outcome) string {
	switch o {
	case OutcomeApplied:
		if rec.ChurnForced {
			return fmt.Sprintf("applied: catalog churn %.3f forced the plan past the hysteresis bar %.4f (net benefit %.4f, +%d/-%d replicas, %.3f GB·hops transfer)",
				rec.ChurnRate, rec.HysteresisBar, rec.NetBenefit, len(rec.Created), len(rec.Dropped), rec.TransferGBHops)
		}
		return fmt.Sprintf("applied: net benefit %.4f cleared the hysteresis bar %.4f (+%d/-%d replicas, %.3f GB·hops transfer)",
			rec.NetBenefit, rec.HysteresisBar, len(rec.Created), len(rec.Dropped), rec.TransferGBHops)
	case OutcomeSkipped:
		return fmt.Sprintf("rejected: net benefit %.4f below the hysteresis bar %.4f; plan kept pending",
			rec.NetBenefit, rec.HysteresisBar)
	case OutcomeNoop:
		return "noop: proposal matches the live placement"
	case OutcomeNoSignal:
		return "no-signal: no requests observed yet"
	}
	return string(o)
}
