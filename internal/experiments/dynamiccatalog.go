package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// MechControlled is the online control plane run over a churning
// catalog: an initial hybrid placement, then a controller that
// estimates demand from the observed stream and re-places periodically
// (with the churn signal allowed to force plans past hysteresis; see
// control.Config.ChurnKick). It is the dynamic-catalog counterpart of
// MechHybrid, whose placement stays frozen at generation 0.
const MechControlled Mechanism = "controlled-hybrid"

// DynamicOptions parameterizes the dynamic-catalog comparison on top of
// Options. Zero value is unusable; start from DefaultDynamicOptions.
type DynamicOptions struct {
	// ChurnRates are the per-live-site perish rates (per request) to
	// sweep, in addition to the implicit static (rate 0) baseline. The
	// publish rate is matched to the death rate (rate × site count) so
	// the catalog stays near full occupancy.
	ChurnRates []float64
	// FlashCrowdBoost / FlashCrowdRequests give every newly published
	// generation a flash-crowd honeymoon (workload.DynamicConfig).
	FlashCrowdBoost    float64
	FlashCrowdRequests int
	// SegmentChainProb / ChainLength make that fraction of published
	// sites HLS-style segment chains.
	SegmentChainProb float64
	ChainLength      int
	// ReconcileEvery is the controlled mechanism's reconcile cadence in
	// requests; 0 disables reconciling (the controller never runs).
	ReconcileEvery int
	// ChurnKick is passed to control.Config.ChurnKick for the controlled
	// mechanism.
	ChurnKick float64
}

// DefaultDynamicOptions sweeps three churn rates spanning "a site
// outlives the run" to "placements stale within a reconcile window",
// with flash crowds and segment chains on.
func DefaultDynamicOptions() DynamicOptions {
	return DynamicOptions{
		ChurnRates:         []float64{0.00001, 0.00005, 0.00025},
		FlashCrowdBoost:    8,
		FlashCrowdRequests: 5000,
		SegmentChainProb:   0.25,
		ChainLength:        12,
		ReconcileEvery:     20000,
		ChurnKick:          0.05,
	}
}

// DynamicRow is one (catalog, mechanism) cell of the dynamic-catalog
// comparison.
type DynamicRow struct {
	Mechanism Mechanism
	// ChurnRate is the per-live-site perish rate per request; 0 is the
	// static catalog (the unmodified IRM stream — no churn, flash crowds
	// or chains, byte-identical to the paper's workload).
	ChurnRate float64
	MeanRTMs  float64
	MeanHops  float64
	// HitRatio and LocalFraction mirror sim.Metrics.
	HitRatio      float64
	LocalFraction float64
	// PerishedPct is the share of measured requests answered 404 for
	// withdrawn content; StaleRedirectPct the share redirected to the
	// origin because the replicas of their site hold a perished
	// generation's bytes.
	PerishedPct      float64
	StaleRedirectPct float64
	// StalePlacementPct is the end-of-run fraction of replicated sites
	// whose live catalog generation exceeds the generation their
	// replicas were placed for — placement capacity pinned to dead
	// content.
	StalePlacementPct float64
	// Turnover counts site publications over the whole run (warm-up
	// included).
	Turnover int64
	// Reconciles / Applied count the controlled mechanism's control
	// rounds (zero for the other mechanisms).
	Reconciles, Applied int64
}

// dynConfig derives the workload.DynamicConfig for one churn rate.
// Rate 0 returns the zero config: the static baseline.
func dynConfig(dyn DynamicOptions, rate float64, sites int) workload.DynamicConfig {
	if rate == 0 {
		return workload.DynamicConfig{}
	}
	return workload.DynamicConfig{
		PublishRate:        rate * float64(sites),
		PerishRate:         rate,
		FlashCrowdBoost:    dyn.FlashCrowdBoost,
		FlashCrowdRequests: dyn.FlashCrowdRequests,
		SegmentChainProb:   dyn.SegmentChainProb,
		ChainLength:        dyn.ChainLength,
	}
}

// DynamicComparison runs the dynamic-catalog experiment: caching,
// replication, hybrid and controlled-hybrid on the static catalog and
// on each churn rate in dyn.ChurnRates, all at 10% capacity with
// identical stream seeds. Rows are grouped by catalog (static first,
// then ascending churn), mechanisms in a fixed order within each group.
func DynamicComparison(ctx context.Context, opts Options, dyn DynamicOptions) ([]DynamicRow, error) {
	cfg := opts.Base
	cfg.CapacityFrac = 0.10
	cfg.Workload.Lambda = 0
	// The dynamic stream owns server attribution (diurnal phase shifts
	// would fight the static locality mixin).
	cfg.Workload.LocalityProb = 0
	sc, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	rates := append([]float64{0}, dyn.ChurnRates...)
	mechs := []Mechanism{MechCaching, MechReplication, MechHybrid, MechControlled}
	rows := make([]DynamicRow, len(rates)*len(mechs))
	err = parallelFor(len(rows), func(k int) error {
		rate := rates[k/len(mechs)]
		mech := mechs[k%len(mechs)]
		dcfg := dynConfig(dyn, rate, sc.Sys.M())
		var row DynamicRow
		var err error
		if mech == MechControlled {
			row, err = runControlledDynamic(ctx, sc, opts, dyn, dcfg)
		} else {
			row, err = runDynamicMech(ctx, sc, opts, mech, dcfg)
		}
		if err != nil {
			return err
		}
		row.ChurnRate = rate
		rows[k] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runDynamicMech simulates one frozen-placement mechanism against the
// dynamic stream: the placement is built on the generation-0 demand and
// never moves, so every republished site turns its replicas into dead
// weight (sim redirects those requests to the origin).
func runDynamicMech(ctx context.Context, sc *scenario.Scenario, opts Options, mech Mechanism, dcfg workload.DynamicConfig) (DynamicRow, error) {
	p, useCache, _, err := buildPlacement(sc, mech, opts.Model)
	if err != nil {
		return DynamicRow{}, err
	}
	ds, err := workload.NewDynamicStream(sc.Work, dcfg, xrand.New(opts.TraceSeed))
	if err != nil {
		return DynamicRow{}, err
	}
	simCfg := opts.Sim
	simCfg.UseCache = useCache
	simCfg.KeepResponseTimes = false
	m, err := sim.RunSourceParallel(ctx, sc, p, simCfg, sim.EndlessSource{S: ds})
	if err != nil {
		return DynamicRow{}, err
	}
	return dynamicRow(mech, m, p, nil, ds), nil
}

// dynamicRow reads one row off a finished run's metrics, its final
// placement p (placedGen as in stalePlacementPct) and the stream's end
// state.
func dynamicRow(mech Mechanism, m *sim.Metrics, p *core.Placement, placedGen []int, ds *workload.DynamicStream) DynamicRow {
	n := float64(m.Requests)
	return DynamicRow{
		Mechanism:         mech,
		MeanRTMs:          m.MeanRTMs,
		MeanHops:          m.MeanHops,
		HitRatio:          m.HitRatio(),
		LocalFraction:     m.LocalFraction(),
		PerishedPct:       100 * float64(m.Perished) / n,
		StaleRedirectPct:  100 * float64(m.StaleReplica) / n,
		StalePlacementPct: stalePlacementPct(p, placedGen, ds),
		Turnover:          ds.Publishes(),
	}
}

// runControlledDynamic closes the loop: the controller only ever sees
// the observed request stream (perished requests are 404s, not demand),
// reconciles every dyn.ReconcileEvery requests, and refreshed replicas
// pick up the current catalog generation of their site. Requests are
// served by sim's stepper — the same rule as every other row — whose
// placement is swapped when a round applies.
func runControlledDynamic(ctx context.Context, sc *scenario.Scenario, opts Options, dyn DynamicOptions, dcfg workload.DynamicConfig) (DynamicRow, error) {
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
		Model:          opts.Model,
	})
	if err != nil {
		return DynamicRow{}, err
	}
	target := control.NewModelTarget(res.Placement)
	ctrl, err := control.New(control.Config{
		Base:           sc.Sys,
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
		Model:          opts.Model,
		Target:         target,
		ChurnKick:      dyn.ChurnKick,
	})
	if err != nil {
		return DynamicRow{}, err
	}
	est := ctrl.Estimator()
	ds, err := workload.NewDynamicStream(sc.Work, dcfg, xrand.New(opts.TraceSeed))
	if err != nil {
		return DynamicRow{}, err
	}

	placedGen := make([]int, sc.Sys.M())
	simCfg := opts.Sim
	simCfg.UseCache = true
	simCfg.PlacedGeneration = placedGen
	st, err := sim.NewStepper(sc, target.Placement(), simCfg)
	if err != nil {
		return DynamicRow{}, err
	}

	total := simCfg.Warmup + simCfg.Requests
	var rtSum, hopSum float64
	var reconciles, applied int64
	for t := 0; t < total; t++ {
		if t%4096 == 0 && ctx.Err() != nil {
			return DynamicRow{}, ctx.Err()
		}
		req := ds.Next()
		if !req.Perished {
			est.Observe(req.Server, req.Site)
		}
		measured := t >= simCfg.Warmup
		hops, _ := st.Step(req, measured)
		if measured {
			rtSum += simCfg.FirstHopMs + simCfg.PerHopMs*hops
			hopSum += hops
		}
		if dyn.ReconcileEvery > 0 && (t+1)%dyn.ReconcileEvery == 0 {
			rep, err := ctrl.Reconcile()
			if err != nil {
				return DynamicRow{}, err
			}
			reconciles++
			if rep.Outcome == control.OutcomeApplied {
				applied++
				// A freshly created replica copies the site's current
				// content: its column serves the live generation from now
				// on (per-column approximation of per-replica state).
				for _, r := range rep.Diff.Created {
					placedGen[r.Site] = ds.Generation(r.Site)
				}
				if err := st.SetPlacement(target.Placement(), placedGen); err != nil {
					return DynamicRow{}, err
				}
			}
		}
	}

	// The stepper counts; the latency means are this driver's sums.
	m := st.Metrics()
	m.MeanRTMs = rtSum / float64(m.Requests)
	m.MeanHops = hopSum / float64(m.Requests)
	row := dynamicRow(MechControlled, m, target.Placement(), placedGen, ds)
	row.Reconciles, row.Applied = reconciles, applied
	return row, nil
}

// stalePlacementPct is the end-of-run staleness of a placement: of the
// sites holding at least one replica, the percentage whose live catalog
// generation exceeds the generation the replicas were placed for.
// placedGen nil means everything was placed at generation 0 (the frozen
// mechanisms).
func stalePlacementPct(p *core.Placement, placedGen []int, ds *workload.DynamicStream) float64 {
	n, m := p.System().N(), p.System().M()
	replicated, stale := 0, 0
	for j := 0; j < m; j++ {
		has := false
		for i := 0; i < n; i++ {
			if p.Has(i, j) {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		replicated++
		g := 0
		if placedGen != nil {
			g = placedGen[j]
		}
		if ds.Generation(j) > g {
			stale++
		}
	}
	if replicated == 0 {
		return 0
	}
	return 100 * float64(stale) / float64(replicated)
}

// FormatDynamicRows renders the comparison as an aligned text table,
// one group per catalog.
func FormatDynamicRows(rows []DynamicRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic catalogs: publish/perish churn vs the static baseline\n")
	fmt.Fprintf(&b, "(churn = per-live-site perish rate per request; 404%% = withdrawn content;\n")
	fmt.Fprintf(&b, " stale-redir%% = requests past dead-generation replicas; stale-place%% =\n")
	fmt.Fprintf(&b, " replicated sites whose content outlived their replicas at end of run)\n\n")
	fmt.Fprintf(&b, "%-9s %-18s %11s %7s %6s %6s %12s %12s %9s %11s\n",
		"churn", "mechanism", "meanRT(ms)", "hops", "hit%", "404%",
		"stale-redir%", "stale-place%", "turnover", "recon(app)")
	last := -1.0
	for _, r := range rows {
		if r.ChurnRate != last && last >= 0 {
			b.WriteByte('\n')
		}
		last = r.ChurnRate
		churn := "static"
		if r.ChurnRate > 0 {
			churn = fmt.Sprintf("%g", r.ChurnRate)
		}
		rec := "-"
		if r.Mechanism == MechControlled {
			rec = fmt.Sprintf("%d(%d)", r.Reconciles, r.Applied)
		}
		fmt.Fprintf(&b, "%-9s %-18s %11.2f %7.3f %6.1f %6.2f %12.2f %12.1f %9d %11s\n",
			churn, string(r.Mechanism), r.MeanRTMs, r.MeanHops, 100*r.HitRatio,
			r.PerishedPct, r.StaleRedirectPct, r.StalePlacementPct, r.Turnover, rec)
	}
	return b.String()
}
