package placement

import (
	"testing"

	"repro/internal/xrand"
)

// TestExplainMatchesSteps checks, for both heaps and both oracles, that
// the explain stream mirrors Result.Steps exactly and that attaching a
// writer does not change the decisions.
func TestExplainMatchesSteps(t *testing.T) {
	sys, specs := randomSystem(xrand.New(21), 10, 8, 0.3)

	check := func(name string, explained []ExplainStep, res *Result, base *Result, lazy bool) {
		t.Helper()
		if len(res.Steps) != len(base.Steps) {
			t.Fatalf("%s: explain writer changed the run: %d vs %d steps",
				name, len(res.Steps), len(base.Steps))
		}
		if len(explained) != len(res.Steps) {
			t.Fatalf("%s: %d explain records for %d steps", name, len(explained), len(res.Steps))
		}
		totalPops := 0
		for k, ex := range explained {
			s, b := res.Steps[k], base.Steps[k]
			if ex.Iter != k || ex.Server != s.Server || ex.Site != s.Site ||
				ex.Benefit != s.Benefit || ex.PredictedCost != s.PredictedCost {
				t.Fatalf("%s: explain %d = %+v does not match step %+v", name, k, ex, s)
			}
			if s != b {
				t.Fatalf("%s: step %d changed under explain: %+v vs %+v", name, k, s, b)
			}
			totalPops += ex.HeapPops
		}
		if lazy && len(explained) > 0 && totalPops < len(explained) {
			t.Fatalf("%s: lazy engine reports %d heap pops over %d steps",
				name, totalPops, len(explained))
		}
	}

	var greedyEx []ExplainStep
	greedyBase := GreedyGlobalOpts(sys, GreedyConfig{})
	greedyRes := GreedyGlobalOpts(sys, GreedyConfig{
		Explain: func(e ExplainStep) { greedyEx = append(greedyEx, e) },
	})
	check("greedy-lazy", greedyEx, greedyRes, greedyBase, true)

	var greedyScanEx []ExplainStep
	greedyScanRes := greedyScan(sys, GreedyConfig{
		Explain: func(e ExplainStep) { greedyScanEx = append(greedyScanEx, e) },
	})
	check("greedy-scan", greedyScanEx, greedyScanRes, greedyBase, false)

	hybridCfg := HybridConfig{Specs: specs, AvgObjectBytes: 1}
	hybridBase, err := Hybrid(sys, hybridCfg)
	if err != nil {
		t.Fatal(err)
	}
	var hybridEx []ExplainStep
	cfg := hybridCfg
	cfg.Explain = func(e ExplainStep) { hybridEx = append(hybridEx, e) }
	hybridRes, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("hybrid-lazy", hybridEx, hybridRes, hybridBase, true)

	var hybridScanEx []ExplainStep
	cfg = hybridCfg
	cfg.Explain = func(e ExplainStep) { hybridScanEx = append(hybridScanEx, e) }
	hybridScanRes, err := hybridOracle(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("hybrid-scan", hybridScanEx, hybridScanRes, hybridBase, false)
}
