package repro

import (
	"context"
	"fmt"
	"testing"
)

// The benchmarks below regenerate every figure of the paper's evaluation
// at paper scale (50 servers, 20 sites, ~560-node transit–stub topology,
// 500k measured requests) and report the headline quantities as benchmark
// metrics, so `go test -bench=.` reproduces the evaluation end to end.

// BenchmarkFigure3 regenerates the λ=0 mechanism comparison (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		panels, err := Figure3(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		reportPanels(b, panels)
	}
}

// BenchmarkFigure4 regenerates the λ=0.1 strong-consistency comparison
// (Figure 4).
func BenchmarkFigure4(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		panels, err := Figure4(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		reportPanels(b, panels)
	}
}

// BenchmarkFigure5 regenerates the hybrid vs ad-hoc split comparison
// (Figure 5).
func BenchmarkFigure5(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		panels, err := Figure5(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		reportPanels(b, panels)
	}
}

// BenchmarkFigure6 regenerates the model-accuracy comparison (Figure 6)
// and reports the worst absolute prediction error in percent (the paper
// reports < 7% overall).
func BenchmarkFigure6(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := Figure6(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			e := r.ErrPct()
			if e < 0 {
				e = -e
			}
			if e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst, "worst-model-err-%")
	}
}

// BenchmarkSummary regenerates the §5.2 headline gains and reports the
// mean latency reduction of the hybrid scheme versus both stand-alone
// mechanisms (the paper reports ~40%/~30% vs replication and ~15%/~20%
// vs caching).
func BenchmarkSummary(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := Summary(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		var vsRepl, vsCache float64
		for _, g := range rows {
			vsRepl += g.VsReplicationPct()
			vsCache += g.VsCachingPct()
		}
		b.ReportMetric(vsRepl/float64(len(rows)), "gain-vs-replication-%")
		b.ReportMetric(vsCache/float64(len(rows)), "gain-vs-caching-%")
	}
}

// BenchmarkHybridPlacement measures the Figure 2 algorithm alone at paper
// scale (placement only, no simulation).
func BenchmarkHybridPlacement(b *testing.B) {
	sc := MustBuildScenario(DefaultScenario())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(sc, PlacementConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyGlobalPlacement measures the baseline placement alone.
func BenchmarkGreedyGlobalPlacement(b *testing.B) {
	sc := MustBuildScenario(DefaultScenario())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(sc, PlacementConfig{Strategy: StrategyReplication}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation measures the trace-driven simulator throughput at
// paper scale under the hybrid placement.
func BenchmarkSimulation(b *testing.B) {
	sc := MustBuildScenario(DefaultScenario())
	res, err := Place(sc, PlacementConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSim()
	cfg.KeepResponseTimes = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustSimulate(context.Background(), sc, res.Placement, cfg, uint64(i))
	}
	b.ReportMetric(float64(cfg.Requests+cfg.Warmup), "requests/op")
}

// BenchmarkCachePolicyAblation compares replacement policies under the
// hybrid placement (beyond the paper; DESIGN.md §5).
func BenchmarkCachePolicyAblation(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := CachePolicyAblation(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.HitRatio, string(r.Policy)+"-hit-ratio")
		}
	}
}

// BenchmarkThetaSweep measures the hybrid's adaptation to the Zipf
// parameter against both fixed splits (§5.2 remark; DESIGN.md §5).
func BenchmarkThetaSweep(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := ThetaSweep(context.Background(), opts, []float64{0.8, 1.0, 1.2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.HybridMs, fmt.Sprintf("theta-%.1f-hybrid-ms", r.Theta))
		}
	}
}

// BenchmarkClusterComparison regenerates the §5.3 future-work comparison
// (per-cluster replication vs the hybrid at both granularities).
func BenchmarkClusterComparison(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := ClusterComparison(context.Background(), opts, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanRTMs, r.Name+"-meanRT-ms")
		}
	}
}

// BenchmarkAvailabilityComparison regenerates the §1 availability
// grounding (unavailability under origin failures).
func BenchmarkAvailabilityComparison(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := AvailabilityComparison(context.Background(), opts, []int{0, 5}, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Unavailability,
				fmt.Sprintf("%s-%dorigins-unavail", r.Mechanism, r.FailedOrigins))
		}
	}
}

// BenchmarkDriftComparison regenerates the §2.1 grounding (static vs
// adaptive placement under popularity drift).
func BenchmarkDriftComparison(b *testing.B) {
	opts := DefaultOptions()
	cfg := DefaultDriftConfig()
	for i := 0; i < b.N; i++ {
		rows, err := DriftComparison(context.Background(), opts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanRTMs, string(r.Strategy)+"-meanRT-ms")
		}
	}
}

// BenchmarkKMedianQuality regenerates the greedy-vs-optimal placement
// quality measurement.
func BenchmarkKMedianQuality(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := KMedianQuality(context.Background(), opts, []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanGreedyRatio, fmt.Sprintf("k%d-greedy-ratio", r.K))
		}
	}
}

// BenchmarkModelComparison regenerates the Eq.(1)/(2)-vs-Che ablation.
func BenchmarkModelComparison(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := ModelComparison(context.Background(), opts, []float64{0.02, 0.05, 0.1, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		var worstPaper, worstChe float64
		for _, r := range rows {
			if e := abs(r.PaperH - r.SimH); e > worstPaper {
				worstPaper = e
			}
			if e := abs(r.CheH - r.SimH); e > worstChe {
				worstChe = e
			}
		}
		b.ReportMetric(worstPaper, "paper-model-worst-err")
		b.ReportMetric(worstChe, "che-model-worst-err")
	}
}

// BenchmarkUpdateSweep regenerates the read+update objective sweep.
func BenchmarkUpdateSweep(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := UpdateSweep(context.Background(), opts, []float64{0, 0.25, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.HybridTotal(), fmt.Sprintf("u%.2f-hybrid-total-hops", r.UpdateRatio))
		}
	}
}

// BenchmarkHeterogeneityComparison regenerates the heterogeneous-capacity
// robustness sweep.
func BenchmarkHeterogeneityComparison(b *testing.B) {
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := HeterogeneityComparison(context.Background(), opts, []float64{0, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.HybridGainPct(), fmt.Sprintf("spread%.1f-hybrid-gain", r.Spread))
		}
	}
}

// BenchmarkScalePlacement measures the hybrid placement through the
// facade on instances grown beyond paper scale with ScaleScenario
// (servers, sites and transit domains ×factor, per-server capacity
// constant in site-equivalents). The x10 and per-model cases are
// internal/placement's BenchmarkHybridCold.
func BenchmarkScalePlacement(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		sc := MustBuildScenario(ScaleScenario(DefaultScenario(), factor))
		b.Run(fmt.Sprintf("x%d-n%d", factor, sc.Sys.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Place(sc, PlacementConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleSimulation measures simulator throughput on the grown
// instances under the hybrid placement.
func BenchmarkScaleSimulation(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		sc := MustBuildScenario(ScaleScenario(DefaultScenario(), factor))
		res, err := Place(sc, PlacementConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSim()
		cfg.KeepResponseTimes = false
		b.Run(fmt.Sprintf("x%d-n%d", factor, sc.Sys.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MustSimulate(context.Background(), sc, res.Placement, cfg, uint64(i))
			}
			b.ReportMetric(float64(cfg.Requests+cfg.Warmup), "requests/op")
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func reportPanels(b *testing.B, panels []Panel) {
	for _, p := range panels {
		for _, s := range p.Series {
			b.ReportMetric(s.MeanRTMs, fmt.Sprintf("%s-%s-meanRT-ms", p.ID, s.Mechanism))
		}
	}
}
