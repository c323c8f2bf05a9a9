package repro

import (
	"strings"
	"testing"
)

// TestFormattersTolerateEmptyInput pins down that every facade formatter
// renders a header even with no rows — the CLI prints these directly.
func TestFormattersTolerateEmptyInput(t *testing.T) {
	outputs := map[string]string{
		"fig6":          FormatFig6(nil),
		"summary":       FormatSummary(nil),
		"policy":        FormatPolicyRows(nil),
		"theta":         FormatThetaRows(nil),
		"placement":     FormatPlacementRows(nil),
		"cluster":       FormatClusterRows(nil, 4),
		"availability":  FormatAvailabilityRows(nil),
		"drift":         FormatDriftRows(nil, DefaultDriftConfig()),
		"kmedian":       FormatKMedianRows(nil),
		"modelcompare":  FormatModelCompareRows(nil),
		"robustness":    FormatRobustnessRows(nil),
		"updates":       FormatUpdateRows(nil),
		"heterogeneity": FormatHeterogeneityRows(nil),
	}
	for name, out := range outputs {
		if strings.TrimSpace(out) == "" {
			t.Errorf("%s: empty output for empty rows", name)
		}
		if !strings.Contains(out, "\n") {
			t.Errorf("%s: missing header line", name)
		}
	}
}

// TestLRUPredictorFacade exercises the stand-alone model entry point the
// README shows.
func TestLRUPredictorFacade(t *testing.T) {
	cfg := HitModelConfig{
		Specs:   []SiteSpec{{Objects: 2000, Theta: 1.0}},
		Weights: []float64{1}, AvgObjectBytes: 1, MaxCacheBytes: 2000}
	pred, err := NewHitModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := pred.SiteHitRatio(0, 500)
	if h <= 0 || h >= 1 {
		t.Fatalf("hit ratio %v", h)
	}
	if k := pred.K(500); k < 500 {
		t.Fatalf("K %v below B", k)
	}
	cfg.Kind = "che"
	che, err := NewHitModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hc := che.SiteHitRatio(0, 500); hc < h-0.01 {
		t.Fatalf("Che %v below the paper model %v", hc, h)
	}
}

// TestRandFacade checks the exported deterministic source.
func TestRandFacade(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("facade Rand not deterministic")
		}
	}
}
