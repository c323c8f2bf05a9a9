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
	// Benefit is the winning candidate's marginal benefit, evaluated at
	// selection (Step.Benefit).
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
	// Engine labels the heap run that produced the step: "lazy" or
	// "warm" (see EngineLabel).
	Engine string `json:"engine,omitempty"`
	// Model labels the analytical hit-ratio model the benefit terms
	// were evaluated under ("eq1", "che", "random";
	// empty for the model-free greedy engines).
	Model string `json:"model,omitempty"`
	// CellsBounded counts seed cells re-keyed at their own Jensen slice
	// since the previous step: the seed surfaced at the top of the heap,
	// and the engine filled its m-entry shrink slice from the model's
	// cheap upper bound. Hybrid and Incremental, cold or warm, all start
	// from seeds.
	CellsBounded int `json:"cells_bounded,omitempty"`
	// CellsVerified counts cells whose exact value was computed since
	// the previous step — a bounded cell surfaced again, or the exact
	// selection ranked a near tie, so the engine filled the cell's slice
	// from the model. No hybrid run fills an m×m row table: it pays only
	// these slices.
	CellsVerified int `json:"cells_verified,omitempty"`
}

// EngineLabel is the wire label of a heap run, in ExplainStep.Engine and
// in the control plane's audit records: "warm" for an incremental
// repair of the previous round's state, "lazy" for a cold solve.
func EngineLabel(warm bool) string {
	if warm {
		return "warm"
	}
	return "lazy"
}

// ExplainWriter receives one record per replica creation. A nil writer
// disables explain at zero cost: the engines keep plain integer
// counters on their existing paths and only materialize an ExplainStep
// inside a nil check.
type ExplainWriter func(ExplainStep)
