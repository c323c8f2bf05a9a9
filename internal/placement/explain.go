package placement

// ExplainStep is one replica-creation decision annotated with the
// engine work that produced it — the audit trail behind a placement
// run. The JSON tags match what cmd/cdntrace and the control plane's
// /debug/control/audit serve.
type ExplainStep struct {
	// Iter is the 0-based decision index within the run.
	Iter int `json:"iter"`
	// Server and Site identify the replica created.
	Server int `json:"server"`
	Site   int `json:"site"`
	// Benefit is the winning candidate's marginal benefit (Step.Benefit:
	// evaluated at selection for an exact hybrid run, the heap key that
	// selected it otherwise).
	Benefit float64 `json:"benefit"`
	// PredictedCost is the objective D after applying the step, under
	// the engine's own cost model.
	PredictedCost float64 `json:"predicted_cost"`
	// HeapPops counts heap pops since the previous step.
	HeapPops int `json:"heap_pops,omitempty"`
	// StaleReevals counts popped entries whose key was out of date and
	// had to be re-evaluated against the live state.
	StaleReevals int `json:"stale_reevals,omitempty"`
	// Superseded counts popped entries discarded because a newer entry
	// for the same cell was already live (hybrid lazy deletion).
	Superseded int `json:"superseded,omitempty"`
	// Infeasible counts popped candidates that no longer fit.
	Infeasible int `json:"infeasible,omitempty"`
	// Engine labels the heap run that produced the step: "lazy",
	// "approx" or "warm" (see EngineLabel).
	Engine string `json:"engine,omitempty"`
	// Model labels the analytical hit-ratio model the benefit terms
	// were evaluated under ("eq1", "che", "closedform", "random";
	// empty for the model-free greedy engines).
	Model string `json:"model,omitempty"`
	// RowsDeferred counts row re-evaluations the approximate engine
	// deferred since the previous step (ε > 0 only); each deferral
	// grows the row's drift bound instead of paying the re-evaluation.
	RowsDeferred int `json:"rows_deferred,omitempty"`
	// RowsCaughtUp counts deferred rows re-evaluated exactly since the
	// previous step, either to restore headroom when the drift budget
	// ran out or during the final drain sweep.
	RowsCaughtUp int `json:"rows_caught_up,omitempty"`
	// CellsBounded counts seed cells of the lazy cold start re-keyed at
	// their own Jensen slice since the previous step: the seed surfaced
	// at the top of the heap, and the engine filled its m-entry shrink
	// slice from the model's cheap upper bound (0 for Incremental, whose
	// runs start from filled tables).
	CellsBounded int `json:"cells_bounded,omitempty"`
	// CellsVerified counts cells whose exact value was computed since
	// the previous step — a bounded cell surfaced again, or the exact
	// selection ranked a near tie, so the engine filled the cell's slice
	// from the model. The lazy cold start of every Hybrid run defers the
	// m×m row fills entirely and pays only these slices (0 for
	// Incremental).
	CellsVerified int `json:"cells_verified,omitempty"`
	// DriftAccepts counts selections accepted under drift uncertainty:
	// the winning entry's gap to the runner-up did not cover the
	// outstanding drift bounds, and the worst-case loss was charged to
	// the ε budget instead of re-evaluating.
	DriftAccepts int `json:"drift_accepts,omitempty"`
	// DriftBudgetUsed is the cumulative fraction of the ε budget
	// consumed up to and including this step (0..1).
	DriftBudgetUsed float64 `json:"drift_budget_used,omitempty"`
}

// EngineLabel is the wire label of a heap run, in ExplainStep.Engine and
// in the control plane's audit records: "warm" for an incremental
// repair of the previous round's state, otherwise "lazy" for the exact
// run (epsilon <= 0) and "approx" for an ε-budgeted one.
func EngineLabel(epsilon float64, warm bool) string {
	switch {
	case warm:
		return "warm"
	case epsilon > 0:
		return "approx"
	default:
		return "lazy"
	}
}

// ExplainWriter receives one record per replica creation. A nil writer
// disables explain at zero cost: the engines keep plain integer
// counters on their existing paths and only materialize an ExplainStep
// inside a nil check.
type ExplainWriter func(ExplainStep)
