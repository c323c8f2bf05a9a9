package control

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/placement"
)

// The /debug/control and /debug/control/audit documents are consumed
// by cdnctl, cdntrace -audit and external dashboards; these golden key
// sets pin the wire schema so a field rename is a visible, deliberate
// break instead of a silent one.

// checkKeys asserts obj carries every required key and nothing outside
// required ∪ optional.
func checkKeys(t *testing.T, what string, obj map[string]json.RawMessage, required, optional []string) {
	t.Helper()
	allowed := map[string]bool{}
	for _, k := range required {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: required key %q missing", what, k)
		}
		allowed[k] = true
	}
	for _, k := range optional {
		allowed[k] = true
	}
	var extra []string
	for k := range obj {
		if !allowed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: unexpected keys %v — extend the golden schema test if this is deliberate", what, extra)
	}
}

func getJSON(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestControlStatusSchema(t *testing.T) {
	sc := testScenario(t)
	target := NewModelTarget(placement.None(sc.Sys).Placement)
	ctrl := newTestController(t, sc, target, nil)
	feedExact(ctrl.Estimator(), sc.Sys)
	if _, err := ctrl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(ctrl))
	defer srv.Close()

	status := getJSON(t, srv.URL+"/debug/control")
	checkKeys(t, "/debug/control", status,
		[]string{"rounds", "applied", "skipped", "noops", "no_signal", "replicas",
			"observed_requests", "placement", "edge_rates", "site_rates", "window_totals",
			"last", "model", "stale_placement_frac", "churn_rate"},
		[]string{"pending"})
	var model string
	if err := json.Unmarshal(status["model"], &model); err != nil {
		t.Fatal(err)
	}
	if model != "eq1" {
		t.Errorf("status model = %q, want the normalized default %q", model, "eq1")
	}

	var last map[string]json.RawMessage
	if err := json.Unmarshal(status["last"], &last); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "/debug/control last report", last,
		[]string{"round", "outcome", "window_requests", "old_cost", "new_cost",
			"net_benefit", "diff", "creates_deferred", "placement_ms"},
		[]string{"excluded", "engine", "model"})

	var diff map[string]json.RawMessage
	if err := json.Unmarshal(last["diff"], &diff); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "/debug/control last diff", diff,
		[]string{"created", "dropped", "transfer_gb_hops"}, nil)
}

func TestControlAuditSchema(t *testing.T) {
	sc := testScenario(t)
	target := NewModelTarget(placement.None(sc.Sys).Placement)
	ctrl := newTestController(t, sc, target, nil)
	feedExact(ctrl.Estimator(), sc.Sys)
	if _, err := ctrl.Reconcile(); err != nil { // applied: full record
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(ctrl))
	defer srv.Close()

	page := getJSON(t, srv.URL+"/debug/control/audit")
	checkKeys(t, "/debug/control/audit", page, []string{"records"}, nil)

	var records []map[string]json.RawMessage
	if err := json.Unmarshal(page["records"], &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("%d audit records, want 1", len(records))
	}
	checkKeys(t, "audit record", records[0],
		[]string{"round", "when", "duration_ms", "phase_ms", "outcome", "verdict", "demand_hash",
			"window_requests", "old_cost", "new_cost", "net_benefit", "transfer_gb_hops",
			"hysteresis_bar", "proposed", "created", "engine_steps", "creates_deferred",
			"placement_ms", "stale_placement_frac", "churn_rate"},
		[]string{"dropped", "frozen_sites", "excluded_edges", "engine", "model",
			"warm", "churn_forced"})

	var phases map[string]json.RawMessage
	if err := json.Unmarshal(records[0]["phase_ms"], &phases); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "audit phase timings", phases,
		[]string{"estimate", "system", "propose", "plan", "price", "push"}, nil)

	var warm map[string]json.RawMessage
	if err := json.Unmarshal(records[0]["warm"], &warm); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "audit warm stats", warm,
		[]string{"warm", "dirty_rows", "total_rows", "max_row_drift",
			"predictors_reused", "steps_added", "shared"},
		[]string{"reason"})

	var proposed []map[string]json.RawMessage
	if err := json.Unmarshal(records[0]["proposed"], &proposed); err != nil {
		t.Fatal(err)
	}
	if len(proposed) == 0 {
		t.Fatal("applied audit record has no proposed steps")
	}
	checkKeys(t, "audit proposed step", proposed[0],
		[]string{"server", "site", "benefit"}, nil)

	var steps []map[string]json.RawMessage
	if err := json.Unmarshal(records[0]["engine_steps"], &steps); err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("applied audit record has no engine steps")
	}
	checkKeys(t, "audit engine step", steps[0],
		[]string{"iter", "server", "site", "benefit", "predicted_cost"},
		[]string{"heap_pops", "stale_reevals", "superseded", "infeasible", "engine", "model",
			"cells_bounded", "cells_verified"})
}

// ExampleHandler_audit is compile-time documentation that the audit
// page decodes with the exported types, the path cdntrace -audit uses.
func ExampleHandler_audit() {
	var page AuditPage
	_ = json.Unmarshal([]byte(`{"records":[]}`), &page)
	fmt.Println(len(page.Records))
	// Output: 0
}
