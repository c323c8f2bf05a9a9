package control

import (
	"testing"

	"repro/internal/placement"
)

// TestWarmReconcileConvergence is the warm-start convergence criterion:
// under stationary demand a warm round must reproduce the cold round's
// placement exactly and settle into noops, with the audit trail showing
// the engine transition cold → warm.
func TestWarmReconcileConvergence(t *testing.T) {
	sc := testScenario(t)
	target := NewModelTarget(placement.None(sc.Sys).Placement)
	ctrl := newTestController(t, sc, target, nil)

	feedExact(ctrl.Estimator(), sc.Sys)
	rep1, err := ctrl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Outcome != OutcomeApplied {
		t.Fatalf("round 1 outcome %s, want applied", rep1.Outcome)
	}
	if rep1.Engine != "lazy" {
		t.Fatalf("round 1 engine %q, want a cold solve", rep1.Engine)
	}
	applied := target.Placement()

	// Stationary demand: subsequent rounds must repair warm and change
	// nothing.
	for round := 2; round <= 4; round++ {
		feedExact(ctrl.Estimator(), sc.Sys)
		rep, err := ctrl.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome != OutcomeNoop {
			t.Fatalf("round %d outcome %s, want noop", round, rep.Outcome)
		}
		if rep.Engine != "warm" {
			t.Fatalf("round %d engine %q, want warm", round, rep.Engine)
		}
		if got := target.Placement(); got != applied {
			t.Fatalf("round %d swapped the placement on a noop", round)
		}
	}

	// The warm rounds' audit records must carry the incremental stats.
	audit := ctrl.Audit()
	if len(audit) != 4 {
		t.Fatalf("%d audit records, want 4", len(audit))
	}
	for _, rec := range audit[1:] {
		if rec.Warm == nil || !rec.Warm.Warm {
			t.Fatalf("round %d audit lacks warm stats: %+v", rec.Round, rec.Warm)
		}
		if rec.Warm.DirtyRows != 0 {
			t.Fatalf("round %d: stationary demand dirtied %d rows", rec.Round, rec.Warm.DirtyRows)
		}
		if rec.Warm.StepsAdded != 0 {
			t.Fatalf("round %d: stationary demand added %d steps", rec.Round, rec.Warm.StepsAdded)
		}
	}
	if audit[0].Warm == nil || audit[0].Warm.Warm || audit[0].Warm.Reason != "cold-start" {
		t.Fatalf("round 1 audit: %+v, want cold-start", audit[0].Warm)
	}
}

// TestWarmDisabledMatchesWarm: re-solving cold every round (the carried
// solver state dropped before each reconcile) must converge to the same
// placement — the warm path is an optimization, not a behavior change —
// with every round reporting a cold engine.
func TestWarmDisabledMatchesWarm(t *testing.T) {
	sc := testScenario(t)

	run := func(disable bool) *placement.Result {
		t.Helper()
		target := NewModelTarget(placement.None(sc.Sys).Placement)
		ctrl := newTestController(t, sc, target, nil)
		for round := 0; round < 3; round++ {
			feedExact(ctrl.Estimator(), sc.Sys)
			if disable {
				ctrl.warm = nil
			}
			rep, err := ctrl.Reconcile()
			if err != nil {
				t.Fatal(err)
			}
			if disable && rep.Engine == "warm" {
				t.Fatalf("warm engine ran with warm start disabled")
			}
		}
		return &placement.Result{Placement: target.Placement()}
	}

	warm := run(false)
	cold := run(true)
	sys := sc.Sys
	for i := 0; i < sys.N(); i++ {
		for j := 0; j < sys.M(); j++ {
			if warm.Placement.Has(i, j) != cold.Placement.Has(i, j) {
				t.Fatalf("placements diverge at (%d,%d)", i, j)
			}
		}
	}
}

// TestWarmMaxRoundsForcesCold: the periodic cold re-solve bound must
// trigger after DefaultWarmMaxRounds consecutive warm repairs (the
// counter is pre-set two short of the bound).
func TestWarmMaxRoundsForcesCold(t *testing.T) {
	sc := testScenario(t)
	target := NewModelTarget(placement.None(sc.Sys).Placement)
	ctrl := newTestController(t, sc, target, nil)
	engines := []string{}
	for round := 0; round < 5; round++ {
		feedExact(ctrl.Estimator(), sc.Sys)
		if round == 1 {
			ctrl.warmRounds = DefaultWarmMaxRounds - 2
		}
		rep, err := ctrl.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, rep.Engine)
	}
	// cold, warm, warm, forced cold, warm.
	want := []string{"lazy", "warm", "warm", "lazy", "warm"}
	for k := range want {
		if engines[k] != want[k] {
			t.Fatalf("engine sequence %v, want %v", engines, want)
		}
	}
}
