package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func find(p Panel, m Mechanism) Series {
	for _, s := range p.Series {
		if s.Mechanism == m {
			return s
		}
	}
	panic("mechanism missing: " + string(m))
}

func TestFigure3Shape(t *testing.T) {
	panels, err := Figure3(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("%d panels, want 2", len(panels))
	}
	for _, p := range panels {
		if len(p.Series) != 3 {
			t.Fatalf("%s: %d series, want 3", p.ID, len(p.Series))
		}
		repl := find(p, MechReplication)
		cach := find(p, MechCaching)
		hyb := find(p, MechHybrid)

		// Headline: hybrid beats both stand-alone mechanisms.
		if hyb.MeanRTMs >= repl.MeanRTMs {
			t.Errorf("%s: hybrid %.2f >= replication %.2f", p.ID, hyb.MeanRTMs, repl.MeanRTMs)
		}
		if hyb.MeanRTMs >= cach.MeanRTMs {
			t.Errorf("%s: hybrid %.2f >= caching %.2f", p.ID, hyb.MeanRTMs, cach.MeanRTMs)
		}

		// Caching signature: a large CDF jump at the 20 ms first hop,
		// well above replication's local fraction.
		if cach.CDF[1].Frac <= repl.CDF[1].Frac {
			t.Errorf("%s: caching CDF@20ms %.3f <= replication %.3f",
				p.ID, cach.CDF[1].Frac, repl.CDF[1].Frac)
		}
		// Hybrid signature: follows caching at small delays...
		if hyb.CDF[1].Frac < 0.8*cach.CDF[1].Frac {
			t.Errorf("%s: hybrid CDF@20ms %.3f far below caching %.3f",
				p.ID, hyb.CDF[1].Frac, cach.CDF[1].Frac)
		}
		// ...and avoids caching's heavy tail at large delays.
		last := len(hyb.CDF) - 2
		if hyb.CDF[last].Frac < cach.CDF[last].Frac-0.02 {
			t.Errorf("%s: hybrid tail CDF %.3f below caching %.3f",
				p.ID, hyb.CDF[last].Frac, cach.CDF[last].Frac)
		}

		// CDFs are monotone and end near 1.
		for _, s := range p.Series {
			prev := 0.0
			for _, pt := range s.CDF {
				if pt.Frac < prev {
					t.Fatalf("%s/%s: CDF decreases", p.ID, s.Mechanism)
				}
				prev = pt.Frac
			}
		}
		// The replication mechanism uses no cache.
		if repl.HitRatio != 0 {
			t.Errorf("%s: replication hit ratio %v", p.ID, repl.HitRatio)
		}
		// Hybrid must actually create replicas AND keep cache space.
		if hyb.Replicas == 0 {
			t.Errorf("%s: hybrid created no replicas", p.ID)
		}
		if hyb.HitRatio == 0 {
			t.Errorf("%s: hybrid cache unused", p.ID)
		}
	}
	// More capacity helps replication: fig3b replication must beat
	// fig3a replication.
	ra := find(panels[0], MechReplication).MeanRTMs
	rb := find(panels[1], MechReplication).MeanRTMs
	if rb >= ra {
		t.Errorf("replication at 10%% (%.2f) not better than at 5%% (%.2f)", rb, ra)
	}
}

func TestFigure4Shape(t *testing.T) {
	panels, err := Figure4(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		if p.Lambda != 0.1 {
			t.Fatalf("%s: lambda %v, want 0.1", p.ID, p.Lambda)
		}
		repl := find(p, MechReplication)
		cach := find(p, MechCaching)
		hyb := find(p, MechHybrid)
		if hyb.MeanRTMs >= repl.MeanRTMs || hyb.MeanRTMs >= cach.MeanRTMs {
			t.Errorf("%s: hybrid %.2f vs repl %.2f / cache %.2f",
				p.ID, hyb.MeanRTMs, repl.MeanRTMs, cach.MeanRTMs)
		}
	}
}

func TestStalenessShiftsGains(t *testing.T) {
	// §5.2: with λ=0.1 the hybrid gain versus caching increases
	// relative to λ=0 (staleness hurts caches, not replicas).
	opts := QuickOptions()
	f3, err := Figure3(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Figure4(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	gain := func(p Panel) float64 {
		c := find(p, MechCaching).MeanRTMs
		h := find(p, MechHybrid).MeanRTMs
		return (c - h) / c
	}
	if gain(f4[0]) <= gain(f3[0]) {
		t.Errorf("gain vs caching did not grow with staleness: λ=0 %.3f, λ=0.1 %.3f",
			gain(f3[0]), gain(f4[0]))
	}
}

func TestFigure5HybridDominatesAdHoc(t *testing.T) {
	panels, err := Figure5(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		hyb := find(p, MechHybrid)
		a20 := find(p, MechAdHoc20)
		a80 := find(p, MechAdHoc80)
		// "The hybrid algorithm constantly outperforms both
		// alternatives" — allow a 1% tolerance for trace noise at
		// this reduced scale.
		if hyb.MeanRTMs > 1.01*a20.MeanRTMs {
			t.Errorf("%s: hybrid %.2f worse than 20%%-cache ad-hoc %.2f",
				p.ID, hyb.MeanRTMs, a20.MeanRTMs)
		}
		if hyb.MeanRTMs > 1.01*a80.MeanRTMs {
			t.Errorf("%s: hybrid %.2f worse than 80%%-cache ad-hoc %.2f",
				p.ID, hyb.MeanRTMs, a80.MeanRTMs)
		}
	}
}

func TestFigure6ModelAccuracy(t *testing.T) {
	rows, err := Figure6(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Actual <= 0 || r.Predicted <= 0 {
			t.Errorf("(%d%%, %d%%): degenerate costs %+v", r.CapacityPct, r.LambdaPct, r)
			continue
		}
		// Paper: overall error < 7%. Allow more at the reduced test
		// scale, but a >25% miss means the model or sim is wrong.
		if e := math.Abs(r.ErrPct()); e > 25 {
			t.Errorf("(%d%%, %d%%): prediction error %.1f%%", r.CapacityPct, r.LambdaPct, e)
		}
	}
	// More capacity must lower the actual cost.
	if rows[2].Actual >= rows[0].Actual {
		t.Errorf("20%% capacity cost %.3f not below 5%% cost %.3f", rows[2].Actual, rows[0].Actual)
	}
}

func TestSummaryGainsPositive(t *testing.T) {
	rows, err := Summary(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, g := range rows {
		if g.VsReplicationPct() <= 0 {
			t.Errorf("(%d%%, λ=%d%%): no gain vs replication: %+v", g.CapacityPct, g.LambdaPct, g)
		}
		if g.VsCachingPct() <= 0 {
			t.Errorf("(%d%%, λ=%d%%): no gain vs caching: %+v", g.CapacityPct, g.LambdaPct, g)
		}
	}
}

func TestFormatters(t *testing.T) {
	opts := QuickOptions()
	opts.Sim.Requests = 20000
	opts.Sim.Warmup = 10000
	panels, err := Figure5(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatPanel(panels[0])
	for _, want := range []string{"fig5a", "hybrid", "cache-20%", "mean RT"} {
		if !strings.Contains(out, want) {
			t.Errorf("panel output missing %q:\n%s", want, out)
		}
	}
	rows, err := Figure6(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFig6(rows); !strings.Contains(out, "predicted") {
		t.Error("fig6 output missing header")
	}
	gains, err := Summary(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatSummary(gains); !strings.Contains(out, "vs-repl%") {
		t.Error("summary output missing header")
	}
}

// TestFormattersTolerateEmptyInput: every formatter renders at least a
// header line with no rows, since cdnsim prints them directly.
func TestFormattersTolerateEmptyInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  string
	}{
		{"panel", FormatPanel(Panel{})},
		{"panelplot", FormatPanelPlot(Panel{})},
		{"fig6", FormatFig6(nil)},
		{"summary", FormatSummary(nil)},
		{"gainstats", FormatGainStats(nil)},
		{"policy", FormatPolicyRows(nil)},
		{"theta", FormatThetaRows(nil)},
		{"placement", FormatPlacementRows(nil)},
		{"cluster", FormatClusterRows(nil, 4)},
		{"availability", FormatAvailabilityRows(nil)},
		{"drift", FormatDriftRows(nil, DefaultDriftConfig())},
		{"dynamic", FormatDynamicRows(nil)},
		{"kmedian", FormatKMedianRows(nil)},
		{"modelcompare", FormatModelCompareRows(nil)},
		{"policymodel", FormatPolicyModelRows(nil)},
		{"robustness", FormatRobustnessRows(nil)},
		{"updates", FormatUpdateRows(nil)},
		{"heterogeneity", FormatHeterogeneityRows(nil)},
		{"scale", FormatScaleRows(nil)},
	} {
		if strings.TrimSpace(tc.out) == "" {
			t.Errorf("%s: empty output for empty rows", tc.name)
		}
		if !strings.Contains(tc.out, "\n") {
			t.Errorf("%s: missing header line", tc.name)
		}
	}
}

func TestUnknownMechanism(t *testing.T) {
	opts := QuickOptions()
	cfg := opts.Base
	sc, err := buildScenarioForTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildPlacement(sc, Mechanism("bogus"), ""); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}
