package main

import (
	"context"
	"fmt"
	"os"

	"repro"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// runTraced is the `-trace out.jsonl` mode: one hybrid-placement
// simulation with the JSONL span tracer attached, followed by an
// end-of-run snapshot that reconciles each server's *measured* cache
// hit ratio against the LRU model's (Eqs. (1)–(2)) prediction — the
// §5/Figure 6 model-vs-system comparison at per-edge granularity.
func runTraced(ctx context.Context, opts repro.Options, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tracer := obs.NewTracer(f)

	sc, err := repro.BuildScenario(opts.Base)
	if err != nil {
		return err
	}
	res, err := repro.Place(sc, repro.PlacementConfig{
		Strategy: repro.StrategyHybrid,
		Model:    opts.Model,
	})
	if err != nil {
		return err
	}

	cfg := opts.Sim
	cfg.Tracer = tracer
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	m, err := sim.RunParallel(ctx, sc, res.Placement, cfg, xrand.New(opts.TraceSeed))
	if err != nil {
		return err
	}
	if err := tracer.Flush(); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}

	fmt.Printf("wrote the virtual-time span trees of %d requests to %s — analyze with cdntrace\n\n",
		m.Requests, path)
	fmt.Printf("hybrid placement: %d replicas, predicted cost %.3f hops/request\n",
		res.Placement.Replicas(), res.PredictedCost)
	fmt.Printf("measured: mean %.1f ms, %.3f hops/request, local %.1f%%, aggregate hit ratio %.3f\n\n",
		m.MeanRTMs, m.MeanHops, 100*m.LocalFraction(), m.HitRatio())

	fmt.Println("per-edge cache hit ratio, measured vs model prediction:")
	fmt.Println("edge   lookups   measured  predicted       err")
	predicted, err := predictedHitRatios(sc, res.Placement, opts.Model)
	if err != nil {
		return err
	}
	for i := 0; i < sc.Sys.N(); i++ {
		fmt.Printf("%4d  %8d     %6.3f     %6.3f   %+7.3f\n",
			i, m.PerServerLookups[i], m.PerServerHitRatio[i], predicted[i],
			m.PerServerHitRatio[i]-predicted[i])
	}
	fmt.Println("\nend-of-run metrics snapshot (/metrics format):")
	return reg.WritePrometheus(os.Stdout)
}

// predictedHitRatios evaluates the selected analytical model per
// server: each server's expected hit ratio over its cacheable,
// non-replicated traffic given its placement's free cache bytes —
// directly comparable to sim.Metrics.PerServerHitRatio.
func predictedHitRatios(sc *repro.Scenario, p *repro.Placement, model string) ([]float64, error) {
	specs := sc.Work.Specs()
	n := sc.Sys.N()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		pred, err := lrumodel.New(lrumodel.ModelConfig{
			Kind:           lrumodel.ModelKind(model),
			Specs:          specs,
			Weights:        sc.Sys.Demand[i],
			AvgObjectBytes: sc.Work.AvgObjectBytes,
			MaxCacheBytes:  sc.Sys.Capacity[i],
		})
		if err != nil {
			return nil, err
		}
		visible := make([]bool, sc.Sys.M())
		for j := range visible {
			visible[j] = !p.Has(i, j)
		}
		h := pred.HitRatiosCond(visible, p.Free(i))
		// h[j] is λ-adjusted (hits over *all* of site j's requests);
		// the measured ratio is over cacheable lookups only, so weigh
		// the denominator by each visible site's cacheable share.
		var num, den float64
		for j := range visible {
			if !visible[j] {
				continue
			}
			pop := pred.SitePopularity(j)
			num += pop * h[j]
			den += pop * (1 - specs[j].Lambda)
		}
		if den > 0 {
			out[i] = num / den
		}
	}
	return out, nil
}
