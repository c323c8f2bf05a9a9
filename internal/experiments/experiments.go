// Package experiments reproduces §5 of the paper: each Figure function
// regenerates the data series of the corresponding figure — the
// response-time CDFs of Figures 3–5, the predicted-vs-actual cost bars of
// Figure 6, and the §5.2 headline latency-gain summary.
//
// All mechanisms in one panel are simulated against the same request
// trace (identical stream seed), mirroring the paper's trace-driven
// comparison.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// parallelFor runs f(0..n-1) concurrently and returns the first error.
// Every unit of work in this package owns its RNG streams (seeded, not
// shared), so parallel execution is bit-identical to sequential.
func parallelFor(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Mechanism names a content-delivery configuration of §5.2.
type Mechanism string

// The mechanisms compared in the paper's figures.
const (
	MechReplication Mechanism = "replication" // greedy-global, no caching
	MechCaching     Mechanism = "caching"     // no replicas, all storage cache
	MechHybrid      Mechanism = "hybrid"      // Figure 2 algorithm
	MechAdHoc20     Mechanism = "cache-20%"   // fixed 20% cache + greedy-global
	MechAdHoc80     Mechanism = "cache-80%"   // fixed 80% cache + greedy-global
)

// The printed CDF grid: gridSteps points up to gridMaxMs.
const (
	gridMaxMs = 400
	gridSteps = 20
)

// Options scales an experiment run. Zero value is unusable; start from
// DefaultOptions (paper scale) or QuickOptions (CI scale).
type Options struct {
	// Base is the scenario template; each panel overrides
	// CapacityFrac and the workload λ as the figure demands.
	Base scenario.Config
	// Sim configures the trace-driven simulation of each mechanism.
	Sim sim.Config
	// TraceSeed drives request sampling (identical across mechanisms).
	TraceSeed uint64
	// Model selects the analytical hit-ratio model the hybrid placement
	// optimizes with ("eq1", "che", "random"); empty means
	// eq1, the paper's own model.
	Model string
}

// DefaultOptions reproduces the paper's scale: 50 servers, 20 sites,
// ~560-node topology, 500k measured requests.
func DefaultOptions() Options {
	return Options{
		Base:      scenario.Default(),
		Sim:       sim.DefaultConfig(),
		TraceSeed: 99,
	}
}

// QuickOptions shrinks everything for tests and smoke runs: 10 servers,
// 8 sites, small topology, 80k measured requests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Base.Topology.TransitDomains = 1
	o.Base.Topology.TransitNodesPerDomain = 2
	o.Base.Topology.StubsPerTransitNode = 3
	o.Base.Topology.StubNodesPerStub = 5
	// Keep M large enough that a site (~1/M of the total bytes) fits
	// within the smallest capacity setting (5%), as at paper scale.
	o.Base.Workload.Servers = 10
	o.Base.Workload.LowSites = 4
	o.Base.Workload.MediumSites = 8
	o.Base.Workload.HighSites = 4
	o.Base.Workload.ObjectsPerSite = 120
	o.Sim.Requests = 80000
	o.Sim.Warmup = 40000
	return o
}

// Series is one mechanism's measured curve in a panel.
type Series struct {
	Mechanism     Mechanism
	CDF           []stats.CDFPoint
	MeanRTMs      float64
	MeanHops      float64
	HitRatio      float64
	LocalFraction float64
	Replicas      int
	PredictedCost float64 // model-predicted hops/request (hybrid only; else no-cache prediction)
}

// Panel is one sub-figure: a parameter setting with one Series per
// mechanism.
type Panel struct {
	ID           string // e.g. "fig3a"
	Title        string
	CapacityFrac float64
	Lambda       float64
	Series       []Series
}

// buildPlacement constructs the placement for a mechanism on a scenario,
// and reports whether the simulator should enable caches. model selects
// the hybrid's analytical hit-ratio model (empty = eq1).
func buildPlacement(sc *scenario.Scenario, mech Mechanism, model string) (*core.Placement, bool, float64, error) {
	switch mech {
	case MechReplication:
		res := placement.GreedyGlobal(sc.Sys)
		return res.Placement, false, res.PredictedCost, nil
	case MechCaching:
		res := placement.None(sc.Sys)
		return res.Placement, true, res.PredictedCost, nil
	case MechHybrid:
		res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
			Specs:          sc.Work.Specs(),
			AvgObjectBytes: sc.Work.AvgObjectBytes,
			Model:          model,
		})
		if err != nil {
			return nil, false, 0, err
		}
		return res.Placement, true, res.PredictedCost, nil
	case MechAdHoc20:
		res, err := placement.AdHoc(sc.Sys, 0.20)
		if err != nil {
			return nil, false, 0, err
		}
		return res.Placement, true, res.PredictedCost, nil
	case MechAdHoc80:
		res, err := placement.AdHoc(sc.Sys, 0.80)
		if err != nil {
			return nil, false, 0, err
		}
		return res.Placement, true, res.PredictedCost, nil
	default:
		return nil, false, 0, fmt.Errorf("experiments: unknown mechanism %q", mech)
	}
}

// runPanel simulates the given mechanisms on one parameter setting.
func runPanel(ctx context.Context, opts Options, id, title string, capacityFrac, lambda float64, mechs []Mechanism) (Panel, error) {
	cfg := opts.Base
	cfg.CapacityFrac = capacityFrac
	cfg.Workload.Lambda = lambda
	sc, err := scenario.Build(cfg)
	if err != nil {
		return Panel{}, err
	}
	panel := Panel{ID: id, Title: title, CapacityFrac: capacityFrac, Lambda: lambda}
	panel.Series = make([]Series, len(mechs))
	// Mechanisms are independent given the shared read-only scenario;
	// run them in parallel on identical trace seeds.
	err = parallelFor(len(mechs), func(mi int) error {
		mech := mechs[mi]
		p, useCache, predicted, err := buildPlacement(sc, mech, opts.Model)
		if err != nil {
			return err
		}
		simCfg := opts.Sim
		simCfg.UseCache = useCache
		m, err := sim.RunParallel(ctx, sc, p, simCfg, xrand.New(opts.TraceSeed))
		if err != nil {
			return err
		}
		panel.Series[mi] = Series{
			Mechanism:     mech,
			CDF:           m.CDF().Grid(gridMaxMs, gridSteps),
			MeanRTMs:      m.MeanRTMs,
			MeanHops:      m.MeanHops,
			HitRatio:      m.HitRatio(),
			LocalFraction: m.LocalFraction(),
			Replicas:      p.Replicas(),
			PredictedCost: predicted,
		}
		return nil
	})
	if err != nil {
		return Panel{}, err
	}
	return panel, nil
}

// Figure3 regenerates the λ=0 mechanism comparison: response-time CDFs
// of replication, caching and hybrid at 5% (a) and 10% (b) capacity.
func Figure3(ctx context.Context, opts Options) ([]Panel, error) {
	mechs := []Mechanism{MechReplication, MechCaching, MechHybrid}
	a, err := runPanel(ctx, opts, "fig3a", "Mechanism comparison, λ=0, 5% capacity", 0.05, 0, mechs)
	if err != nil {
		return nil, err
	}
	b, err := runPanel(ctx, opts, "fig3b", "Mechanism comparison, λ=0, 10% capacity", 0.10, 0, mechs)
	if err != nil {
		return nil, err
	}
	return []Panel{a, b}, nil
}

// Figure4 is Figure 3 with 10% stale documents under strong consistency
// (λ = 0.1): cached pages must be refreshed while replicas stay local.
func Figure4(ctx context.Context, opts Options) ([]Panel, error) {
	mechs := []Mechanism{MechReplication, MechCaching, MechHybrid}
	a, err := runPanel(ctx, opts, "fig4a", "Mechanism comparison, λ=0.1, 5% capacity", 0.05, 0.1, mechs)
	if err != nil {
		return nil, err
	}
	b, err := runPanel(ctx, opts, "fig4b", "Mechanism comparison, λ=0.1, 10% capacity", 0.10, 0.1, mechs)
	if err != nil {
		return nil, err
	}
	return []Panel{a, b}, nil
}

// Figure5 compares the hybrid algorithm against the ad-hoc fixed splits
// (20% and 80% cache) at 5% capacity, for λ=0 (a) and λ=0.1 (b).
func Figure5(ctx context.Context, opts Options) ([]Panel, error) {
	mechs := []Mechanism{MechHybrid, MechAdHoc20, MechAdHoc80}
	a, err := runPanel(ctx, opts, "fig5a", "Hybrid vs ad-hoc splits, λ=0, 5% capacity", 0.05, 0, mechs)
	if err != nil {
		return nil, err
	}
	b, err := runPanel(ctx, opts, "fig5b", "Hybrid vs ad-hoc splits, λ=0.1, 5% capacity", 0.05, 0.1, mechs)
	if err != nil {
		return nil, err
	}
	return []Panel{a, b}, nil
}

// Fig6Row is one bar pair of Figure 6: the hybrid algorithm's
// model-predicted cost per request versus the trace-driven measurement.
type Fig6Row struct {
	CapacityPct int
	LambdaPct   int
	Predicted   float64 // hops per request
	Actual      float64
}

// ErrPct is the relative prediction error in percent (positive =
// overestimate, the direction the paper reports for large buffers).
func (r Fig6Row) ErrPct() float64 {
	if r.Actual == 0 {
		return 0
	}
	return 100 * (r.Predicted - r.Actual) / r.Actual
}

// Figure6 regenerates the model-accuracy experiment: for each
// (capacity%, uncacheable%) setting, run the hybrid algorithm, take its
// predicted cost, and compare with the simulated cost per request.
// Settings are independent and run in parallel.
func Figure6(ctx context.Context, opts Options) ([]Fig6Row, error) {
	settings := []struct{ capPct, lamPct int }{
		{5, 0}, {10, 0}, {20, 0}, {5, 10}, {10, 10}, {20, 10},
	}
	rows := make([]Fig6Row, len(settings))
	err := parallelFor(len(settings), func(si int) error {
		setting := settings[si]
		cfg := opts.Base
		cfg.CapacityFrac = float64(setting.capPct) / 100
		cfg.Workload.Lambda = float64(setting.lamPct) / 100
		sc, err := scenario.Build(cfg)
		if err != nil {
			return err
		}
		res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
			Specs:          sc.Work.Specs(),
			AvgObjectBytes: sc.Work.AvgObjectBytes,
			Model:          opts.Model,
		})
		if err != nil {
			return err
		}
		simCfg := opts.Sim
		simCfg.UseCache = true
		simCfg.KeepResponseTimes = false
		m, err := sim.RunParallel(ctx, sc, res.Placement, simCfg, xrand.New(opts.TraceSeed))
		if err != nil {
			return err
		}
		rows[si] = Fig6Row{
			CapacityPct: setting.capPct,
			LambdaPct:   setting.lamPct,
			Predicted:   res.PredictedCost,
			Actual:      m.MeanHops,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// GainRow is one line of the §5.2 headline summary: the hybrid scheme's
// mean-latency gain over each stand-alone mechanism.
type GainRow struct {
	CapacityPct   int
	LambdaPct     int
	ReplicationMs float64
	CachingMs     float64
	HybridMs      float64
}

// VsReplicationPct is the latency reduction versus pure replication (the
// paper reports ~40% at λ=0 and ~30% at λ=0.1).
func (g GainRow) VsReplicationPct() float64 {
	if g.ReplicationMs == 0 {
		return 0
	}
	return 100 * (g.ReplicationMs - g.HybridMs) / g.ReplicationMs
}

// VsCachingPct is the latency reduction versus pure caching (~15% at λ=0,
// ~20% at λ=0.1 in the paper).
func (g GainRow) VsCachingPct() float64 {
	if g.CachingMs == 0 {
		return 0
	}
	return 100 * (g.CachingMs - g.HybridMs) / g.CachingMs
}

// Summary computes the headline gains across the Figures 3–4 settings.
func Summary(ctx context.Context, opts Options) ([]GainRow, error) {
	var rows []GainRow
	for _, setting := range []struct {
		capPct, lamPct int
	}{
		{5, 0}, {10, 0}, {5, 10}, {10, 10},
	} {
		panel, err := runPanel(ctx, opts, "summary", "",
			float64(setting.capPct)/100, float64(setting.lamPct)/100,
			[]Mechanism{MechReplication, MechCaching, MechHybrid})
		if err != nil {
			return nil, err
		}
		row := GainRow{CapacityPct: setting.capPct, LambdaPct: setting.lamPct}
		for _, s := range panel.Series {
			switch s.Mechanism {
			case MechReplication:
				row.ReplicationMs = s.MeanRTMs
			case MechCaching:
				row.CachingMs = s.MeanRTMs
			case MechHybrid:
				row.HybridMs = s.MeanRTMs
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPanel renders a panel as the text table the CLI prints: one
// column of response-time grid points, one CDF column per mechanism,
// then the per-mechanism summary lines.
func FormatPanel(p Panel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", p.ID, p.Title)
	fmt.Fprintf(&b, "%-10s", "ms")
	for _, s := range p.Series {
		fmt.Fprintf(&b, "%14s", s.Mechanism)
	}
	b.WriteByte('\n')
	if len(p.Series) > 0 {
		for gi := range p.Series[0].CDF {
			fmt.Fprintf(&b, "%-10.0f", p.Series[0].CDF[gi].X)
			for _, s := range p.Series {
				fmt.Fprintf(&b, "%14.3f", s.CDF[gi].Frac)
			}
			b.WriteByte('\n')
		}
	}
	for _, s := range p.Series {
		fmt.Fprintf(&b, "%-14s mean RT %7.2f ms | mean cost %6.3f hops | hit ratio %5.3f | local %5.3f | replicas %d\n",
			s.Mechanism, s.MeanRTMs, s.MeanHops, s.HitRatio, s.LocalFraction, s.Replicas)
	}
	return b.String()
}

// FormatFig6 renders the Figure 6 rows.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6 — LRU model accuracy (avg cost per request, hops)\n")
	b.WriteString("capacity%  uncacheable%   predicted     actual     err%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %13d %11.3f %10.3f %8.2f\n",
			r.CapacityPct, r.LambdaPct, r.Predicted, r.Actual, r.ErrPct())
	}
	return b.String()
}

// FormatSummary renders the headline gain rows.
func FormatSummary(rows []GainRow) string {
	var b strings.Builder
	b.WriteString("§5.2 headline — hybrid mean-latency gains\n")
	b.WriteString("capacity%  λ%   replication(ms)  caching(ms)  hybrid(ms)   vs-repl%  vs-cache%\n")
	for _, g := range rows {
		fmt.Fprintf(&b, "%8d %4d %16.2f %12.2f %11.2f %10.1f %10.1f\n",
			g.CapacityPct, g.LambdaPct, g.ReplicationMs, g.CachingMs, g.HybridMs,
			g.VsReplicationPct(), g.VsCachingPct())
	}
	return b.String()
}
