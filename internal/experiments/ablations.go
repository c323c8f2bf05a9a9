package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// The functions in this file go beyond the paper's figures: ablations of
// the design choices DESIGN.md §5 calls out. Each reuses the paper-scale
// machinery (same scenarios, same trace-driven simulator).

// PolicyRow is one line of the cache-policy ablation.
type PolicyRow struct {
	Policy   cache.Policy
	MeanRTMs float64
	HitRatio float64
}

// CachePolicyAblation runs the hybrid placement once and replays the
// identical trace under different cache replacement policies. The paper
// assumes "a simple LRU caching scheme"; this quantifies what that
// simplicity costs against LFU (frequency-optimal for static Zipf
// traffic) and what it gains over FIFO.
func CachePolicyAblation(ctx context.Context, opts Options) ([]PolicyRow, error) {
	cfg := opts.Base
	sc, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		return nil, err
	}
	var rows []PolicyRow
	for _, pol := range []cache.Policy{
		cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU, cache.PolicyDelayedLRU,
	} {
		simCfg := opts.Sim
		simCfg.UseCache = true
		simCfg.Policy = pol
		simCfg.KeepResponseTimes = false
		m, err := sim.RunParallel(ctx, sc, res.Placement, simCfg, xrand.New(opts.TraceSeed))
		if err != nil {
			return nil, err
		}
		rows = append(rows, PolicyRow{Policy: pol, MeanRTMs: m.MeanRTMs, HitRatio: m.HitRatio()})
	}
	return rows, nil
}

// ThetaRow is one line of the Zipf-sensitivity ablation.
type ThetaRow struct {
	Theta    float64
	HybridMs float64
	AdHoc20  float64
	AdHoc80  float64
}

// ThetaSweep quantifies the §5.2 remark that "ad-hoc approaches are
// sensitive to changes in the Zipf parameter θ [while] the hybrid
// algorithm takes the Zipf parameter as input and defines a cache size
// that leads to higher performance": for each θ (in parallel) it
// compares the hybrid algorithm against both fixed splits.
func ThetaSweep(ctx context.Context, opts Options, thetas []float64) ([]ThetaRow, error) {
	rows := make([]ThetaRow, len(thetas))
	err := parallelFor(len(thetas), func(ti int) error {
		theta := thetas[ti]
		cfg := opts.Base
		cfg.Workload.Theta = theta
		sc, err := scenario.Build(cfg)
		if err != nil {
			return err
		}
		row := ThetaRow{Theta: theta}
		for _, mc := range []struct {
			out  *float64
			mech Mechanism
		}{
			{&row.HybridMs, MechHybrid},
			{&row.AdHoc20, MechAdHoc20},
			{&row.AdHoc80, MechAdHoc80},
		} {
			p, useCache, _, err := buildPlacement(sc, mc.mech, opts.Model)
			if err != nil {
				return err
			}
			simCfg := opts.Sim
			simCfg.UseCache = useCache
			simCfg.KeepResponseTimes = false
			m, err := sim.RunParallel(ctx, sc, p, simCfg, xrand.New(opts.TraceSeed))
			if err != nil {
				return err
			}
			*mc.out = m.MeanRTMs
		}
		rows[ti] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PlacementRow is one line of the placement-heuristic ablation.
type PlacementRow struct {
	Name     string
	MeanRTMs float64
	MeanHops float64
	Replicas int
}

// PlacementAblation compares replica placement heuristics under identical
// caching (every server's leftover space is an LRU cache): the hybrid
// model-driven placement, greedy-global, local-popularity and random.
// It isolates how much of the hybrid gain comes from *where* replicas go
// versus merely having caches at all.
func PlacementAblation(ctx context.Context, opts Options) ([]PlacementRow, error) {
	sc, err := scenario.Build(opts.Base)
	if err != nil {
		return nil, err
	}
	builders := []struct {
		name  string
		build func() (*placement.Result, error)
	}{
		{"hybrid", func() (*placement.Result, error) {
			return placement.Hybrid(sc.Sys, placement.HybridConfig{
				Specs:          sc.Work.Specs(),
				AvgObjectBytes: sc.Work.AvgObjectBytes,
			})
		}},
		{"greedy-global", func() (*placement.Result, error) {
			return placement.GreedyGlobal(sc.Sys), nil
		}},
		{"popularity", func() (*placement.Result, error) {
			return placement.Popularity(sc.Sys), nil
		}},
		{"random", func() (*placement.Result, error) {
			return placement.Random(sc.Sys, xrand.New(opts.Base.Seed+1000)), nil
		}},
		{"none (cache only)", func() (*placement.Result, error) {
			return placement.None(sc.Sys), nil
		}},
	}
	var rows []PlacementRow
	for _, b := range builders {
		res, err := b.build()
		if err != nil {
			return nil, err
		}
		simCfg := opts.Sim
		simCfg.UseCache = true
		simCfg.KeepResponseTimes = false
		m, err := sim.RunParallel(ctx, sc, res.Placement, simCfg, xrand.New(opts.TraceSeed))
		if err != nil {
			return nil, err
		}
		rows = append(rows, PlacementRow{
			Name:     b.name,
			MeanRTMs: m.MeanRTMs,
			MeanHops: m.MeanHops,
			Replicas: res.Placement.Replicas(),
		})
	}
	return rows, nil
}

// FormatPolicyRows renders the cache-policy ablation.
func FormatPolicyRows(rows []PolicyRow) string {
	var b strings.Builder
	b.WriteString("Ablation — cache replacement policy under the hybrid placement\n")
	b.WriteString("policy        mean RT (ms)   hit ratio\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12.2f %11.3f\n", r.Policy, r.MeanRTMs, r.HitRatio)
	}
	return b.String()
}

// FormatThetaRows renders the θ-sensitivity ablation.
func FormatThetaRows(rows []ThetaRow) string {
	var b strings.Builder
	b.WriteString("Ablation — Zipf θ sensitivity (mean RT, ms)\n")
	b.WriteString("theta     hybrid   cache-20%   cache-80%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5.2f %10.2f %11.2f %11.2f\n", r.Theta, r.HybridMs, r.AdHoc20, r.AdHoc80)
	}
	return b.String()
}

// FormatPlacementRows renders the placement-heuristic ablation.
func FormatPlacementRows(rows []PlacementRow) string {
	var b strings.Builder
	b.WriteString("Ablation — placement heuristics, all with LRU caches in free space\n")
	b.WriteString("placement           mean RT (ms)  cost (hops)  replicas\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-19s %12.2f %12.3f %9d\n", r.Name, r.MeanRTMs, r.MeanHops, r.Replicas)
	}
	return b.String()
}
