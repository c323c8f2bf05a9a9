package repro

import "testing"

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
