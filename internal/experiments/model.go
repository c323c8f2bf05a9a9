package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/lrumodel"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ModelCompareRow is one cache size of the model-comparison sweep.
type ModelCompareRow struct {
	Slots  int
	PaperH float64 // Equations (1)+(2)
	CheH   float64 // Che's characteristic-time approximation
	SimH   float64 // trace-driven LRU ground truth
}

// modelSweepInputs collapses the configured site mix onto one shared
// cache with unit-size objects, the setting in which the analytical
// models are defined.
func modelSweepInputs(opts Options) ([]lrumodel.SiteSpec, []float64, int, error) {
	wcfg := opts.Base.Workload
	w, err := workload.Generate(wcfg, xrand.New(opts.Base.Seed))
	if err != nil {
		return nil, nil, 0, err
	}
	specs := w.Specs()
	weights := make([]float64, len(w.Sites))
	for j, s := range w.Sites {
		weights[j] = s.Weight
	}
	return specs, weights, wcfg.Sites() * wcfg.ObjectsPerSite, nil
}

// ModelComparison sweeps a single shared LRU cache over sizes and
// compares the analytical LRU hit-ratio models — the paper's Equations
// (1) and (2) and Che's characteristic-time approximation — against a
// trace-driven simulation, a model ablation the paper does not run.
func ModelComparison(ctx context.Context, opts Options, slotFracs []float64) ([]ModelCompareRow, error) {
	specs, weights, totalObjects, err := modelSweepInputs(opts)
	if err != nil {
		return nil, err
	}
	kinds := []lrumodel.ModelKind{lrumodel.ModelEq1, lrumodel.ModelChe}
	models := make([]*lrumodel.Predictor, len(kinds))
	for ki, kind := range kinds {
		models[ki], err = lrumodel.New(lrumodel.ModelConfig{
			Kind:           kind,
			Specs:          specs,
			Weights:        weights,
			AvgObjectBytes: 1,
			MaxCacheBytes:  int64(totalObjects),
		})
		if err != nil {
			return nil, err
		}
	}

	// Models are not safe for concurrent use (private memo maps), so the
	// analytical columns fill sequentially; only the simulations fan out.
	rows := make([]ModelCompareRow, len(slotFracs))
	for fi := range slotFracs {
		slots := int(slotFracs[fi] * float64(totalObjects))
		if slots < 1 {
			slots = 1
		}
		rows[fi] = ModelCompareRow{
			Slots:  slots,
			PaperH: models[0].OverallHitRatio(int64(slots)),
			CheH:   models[1].OverallHitRatio(int64(slots)),
		}
	}
	err = parallelFor(len(slotFracs), func(fi int) error {
		rows[fi].SimH = simulateShared(cache.PolicyLRU, specs, weights, rows[fi].Slots, 800000,
			xrand.New(opts.TraceSeed+uint64(fi)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// simulateShared measures the overall hit ratio of one cache of the
// given replacement policy fed by the IRM mixture of all sites
// (unit-size objects).
func simulateShared(policy cache.Policy, specs []lrumodel.SiteSpec, weights []float64, slots, requests int, r *xrand.Source) float64 {
	c := cache.New(policy, int64(slots))
	zipfs := make([]*stats.Zipf, len(specs))
	for j, s := range specs {
		zipfs[j] = stats.NewZipf(s.Objects, s.Theta)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cdf := make([]float64, len(weights))
	cum := 0.0
	for j, w := range weights {
		cum += w / total
		cdf[j] = cum
	}
	warm := requests / 4
	var hits, lookups float64
	for i := 0; i < requests; i++ {
		u := r.Float64()
		site := 0
		for site < len(cdf)-1 && u > cdf[site] {
			site++
		}
		key := cache.Key{Site: site, Object: zipfs[site].Sample(r)}
		hit := c.Get(key)
		if !hit {
			c.Put(key, 1)
		}
		if i >= warm {
			lookups++
			if hit {
				hits++
			}
		}
	}
	return hits / lookups
}

// FormatModelCompareRows renders the model-comparison sweep.
func FormatModelCompareRows(rows []ModelCompareRow) string {
	var b strings.Builder
	b.WriteString("Model ablation — Eq.(1)+(2) vs Che vs simulated LRU\n")
	b.WriteString("slots B     paper-h      che-h      sim-h   paper-err    che-err\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9d %9.4f %10.4f %10.4f %+11.4f %+10.4f\n",
			r.Slots, r.PaperH, r.CheH, r.SimH, r.PaperH-r.SimH, r.CheH-r.SimH)
	}
	return b.String()
}

// PolicyModelRow is one (policy, cache size) cell of the
// non-LRU-policy validation sweep: the analytical RANDOM/FIFO model's
// prediction against a trace-driven simulation of the real cache
// variant.
type PolicyModelRow struct {
	Policy cache.Policy
	Slots  int
	ModelH float64 // analytical RANDOM/FIFO model (Gelenbe/Gallo)
	SimH   float64 // trace-driven ground truth for this policy
}

// ModelPolicyComparison validates the analytical RANDOM/FIFO model
// against the real FIFO and RANDOM cache variants on the same shared
// IRM mixture ModelComparison uses. Under IRM both policies share one
// analytical hit ratio (q·T/(1+q·T)), so one model column serves both
// simulated policies — the table shows how tight that claim is.
func ModelPolicyComparison(ctx context.Context, opts Options, slotFracs []float64) ([]PolicyModelRow, error) {
	specs, weights, totalObjects, err := modelSweepInputs(opts)
	if err != nil {
		return nil, err
	}
	model, err := lrumodel.New(lrumodel.ModelConfig{
		Kind:           lrumodel.ModelRandom,
		Specs:          specs,
		Weights:        weights,
		AvgObjectBytes: 1,
		MaxCacheBytes:  int64(totalObjects),
	})
	if err != nil {
		return nil, err
	}
	policies := []cache.Policy{cache.PolicyFIFO, cache.PolicyRandom}
	rows := make([]PolicyModelRow, len(policies)*len(slotFracs))
	for ri := range rows {
		slots := int(slotFracs[ri%len(slotFracs)] * float64(totalObjects))
		if slots < 1 {
			slots = 1
		}
		rows[ri] = PolicyModelRow{
			Policy: policies[ri/len(slotFracs)],
			Slots:  slots,
			ModelH: model.OverallHitRatio(int64(slots)),
		}
	}
	err = parallelFor(len(rows), func(ri int) error {
		rows[ri].SimH = simulateShared(rows[ri].Policy, specs, weights, rows[ri].Slots, 800000,
			xrand.New(opts.TraceSeed+uint64(ri)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatPolicyModelRows renders the RANDOM/FIFO validation sweep.
func FormatPolicyModelRows(rows []PolicyModelRow) string {
	var b strings.Builder
	b.WriteString("RANDOM/FIFO model — analytical q·T/(1+q·T) vs simulated cache variants\n")
	b.WriteString("policy    slots B    model-h      sim-h        err\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-9d %9.4f %10.4f %+10.4f\n",
			r.Policy, r.Slots, r.ModelH, r.SimH, r.ModelH-r.SimH)
	}
	return b.String()
}

// RobustnessRow is one locality level of the IRM-assumption stress test.
type RobustnessRow struct {
	LocalityProb float64
	Predicted    float64 // hybrid's model-predicted cost (IRM assumption)
	Actual       float64 // simulated cost under the correlated workload
}

// ErrPct is the relative prediction error in percent.
func (r RobustnessRow) ErrPct() float64 {
	if r.Actual == 0 {
		return 0
	}
	return 100 * (r.Predicted - r.Actual) / r.Actual
}

// ModelRobustness stresses the model's independent-reference assumption:
// the workload gains temporal locality (requests repeat recent objects)
// while the hybrid algorithm keeps planning with the IRM model. The
// growing gap between predicted and simulated cost bounds how far the
// paper's approach can be trusted on correlated traffic.
func ModelRobustness(ctx context.Context, opts Options, probs []float64) ([]RobustnessRow, error) {
	rows := make([]RobustnessRow, len(probs))
	err := parallelFor(len(probs), func(pi int) error {
		cfg := opts.Base
		cfg.Workload.LocalityProb = probs[pi]
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
		rows[pi] = RobustnessRow{
			LocalityProb: probs[pi],
			Predicted:    res.PredictedCost,
			Actual:       m.MeanHops,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatRobustnessRows renders the IRM stress test.
func FormatRobustnessRows(rows []RobustnessRow) string {
	var b strings.Builder
	b.WriteString("IRM stress — model accuracy under temporal locality (hops/request)\n")
	b.WriteString("locality    predicted     actual      err%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.2f %10.3f %10.3f %9.2f\n",
			r.LocalityProb, r.Predicted, r.Actual, r.ErrPct())
	}
	return b.String()
}
