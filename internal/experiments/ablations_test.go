package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
)

func ablationOptions() Options {
	o := QuickOptions()
	o.Sim.Requests = 60000
	o.Sim.Warmup = 60000
	return o
}

func TestCachePolicyAblation(t *testing.T) {
	rows, err := CachePolicyAblation(context.Background(), ablationOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byPolicy := map[cache.Policy]PolicyRow{}
	for _, r := range rows {
		if r.HitRatio <= 0 || r.HitRatio >= 1 {
			t.Errorf("%s: hit ratio %v", r.Policy, r.HitRatio)
		}
		byPolicy[r.Policy] = r
	}
	// On a stationary Zipf stream LFU must not lose to FIFO.
	if byPolicy[cache.PolicyLFU].HitRatio < byPolicy[cache.PolicyFIFO].HitRatio {
		t.Errorf("LFU hit ratio %.3f below FIFO %.3f",
			byPolicy[cache.PolicyLFU].HitRatio, byPolicy[cache.PolicyFIFO].HitRatio)
	}
	// LRU must not lose to FIFO either (recency helps under Zipf).
	if byPolicy[cache.PolicyLRU].HitRatio < byPolicy[cache.PolicyFIFO].HitRatio-0.01 {
		t.Errorf("LRU hit ratio %.3f below FIFO %.3f",
			byPolicy[cache.PolicyLRU].HitRatio, byPolicy[cache.PolicyFIFO].HitRatio)
	}
	if out := FormatPolicyRows(rows); !strings.Contains(out, "lru") {
		t.Error("formatting lost the policy names")
	}
}

func TestThetaSweep(t *testing.T) {
	rows, err := ThetaSweep(context.Background(), ablationOptions(), []float64{0.7, 1.0, 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// §5.2: the hybrid adapts to θ; it must not lose to either
		// fixed split by more than trace noise.
		if r.HybridMs > 1.02*r.AdHoc20 || r.HybridMs > 1.02*r.AdHoc80 {
			t.Errorf("θ=%.1f: hybrid %.2f vs ad-hoc %.2f/%.2f",
				r.Theta, r.HybridMs, r.AdHoc20, r.AdHoc80)
		}
	}
	// Steeper Zipf makes caching more effective: the hybrid's latency
	// should improve as θ grows.
	if rows[2].HybridMs >= rows[0].HybridMs {
		t.Errorf("hybrid latency did not improve with θ: %.2f (θ=0.7) -> %.2f (θ=1.3)",
			rows[0].HybridMs, rows[2].HybridMs)
	}
	if out := FormatThetaRows(rows); !strings.Contains(out, "theta") {
		t.Error("formatting lost the header")
	}
}

func TestPlacementAblation(t *testing.T) {
	rows, err := PlacementAblation(context.Background(), ablationOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]PlacementRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	hyb := byName["hybrid"]
	if hyb.MeanRTMs == 0 {
		t.Fatal("hybrid row missing")
	}
	// The model-driven placement must beat random placement even when
	// random also gets caches.
	if hyb.MeanRTMs >= byName["random"].MeanRTMs {
		t.Errorf("hybrid %.2f not better than random+cache %.2f",
			hyb.MeanRTMs, byName["random"].MeanRTMs)
	}
	if out := FormatPlacementRows(rows); !strings.Contains(out, "greedy-global") {
		t.Error("formatting lost the names")
	}
}
