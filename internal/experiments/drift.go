package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The drift experiment grounds the paper's second motivation (§2.1):
// placement "should remain fairly static for a considerable time period"
// because "replica creation and migration incurs a high transfer cost",
// while caching "operates on a per page level and is inherently dynamic".
// Site popularities drift between epochs (a multiplicative random walk);
// static strategies place once on the first epoch's demand, adaptive ones
// re-place at every epoch boundary and pay o_j·C(i, SP_j) for each replica
// they create, and caches persist across epochs and adapt for free.
// Requests are served by sim's stepper; a strategy that moves replicas
// swaps the stepper's placement at the epoch boundary.

// DriftStrategy names a replica management policy over time.
type DriftStrategy string

// The compared strategies.
const (
	// DriftCaching never places replicas; only the LRU caches adapt.
	DriftCaching DriftStrategy = "caching"
	// DriftStaticReplication places greedy-global replicas on the first
	// epoch's demand and keeps them, with no caches.
	DriftStaticReplication DriftStrategy = "static-replication"
	// DriftStaticHybrid runs the hybrid algorithm once on the first
	// epoch's demand; its caches keep adapting afterwards.
	DriftStaticHybrid DriftStrategy = "static-hybrid"
	// DriftAdaptiveReplication re-runs greedy-global every epoch, paying
	// transfer costs, with no caches.
	DriftAdaptiveReplication DriftStrategy = "adaptive-replication"
	// DriftAdaptiveHybrid re-runs the hybrid algorithm every epoch,
	// paying transfer costs; caches are resized to the new free space.
	DriftAdaptiveHybrid DriftStrategy = "adaptive-hybrid"
	// DriftControlled runs the online control plane (internal/control)
	// over the drifting workload: an initial hybrid placement, then a
	// controller that estimates demand from the observed request stream
	// (it never sees the true drifted demand matrix) and re-places at
	// epoch boundaries with hysteresis, cool-down and transfer pricing.
	// This is the causal counterpart of the clairvoyant
	// DriftAdaptiveHybrid.
	DriftControlled DriftStrategy = "controlled-hybrid"
)

// DriftConfig controls a drift simulation.
type DriftConfig struct {
	// Epochs is the number of demand epochs.
	Epochs int
	// RequestsPerEpoch is the measured request count per epoch.
	RequestsPerEpoch int
	// Warmup is the unmeasured cache warm-up before the first epoch.
	Warmup int
	// Drift is the per-epoch log-normal popularity shock σ: site
	// weights evolve w' = w·exp(σ·ξ), ξ ~ N(0,1), then renormalize.
	// 0 freezes the workload; 0.5 reshuffles noticeably per epoch.
	Drift float64
	// FirstHopMs / PerHopMs mirror sim.Config.
	FirstHopMs, PerHopMs float64
}

// DefaultDriftConfig drifts noticeably over 8 epochs.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		Epochs:           8,
		RequestsPerEpoch: 200000,
		Warmup:           200000,
		Drift:            0.6,
		FirstHopMs:       20,
		PerHopMs:         20,
	}
}

// Validate reports a configuration error, or nil.
func (c DriftConfig) Validate() error {
	switch {
	case c.Epochs < 1:
		return fmt.Errorf("drift: Epochs = %d", c.Epochs)
	case c.RequestsPerEpoch < 1:
		return fmt.Errorf("drift: RequestsPerEpoch = %d", c.RequestsPerEpoch)
	case c.Warmup < 0:
		return fmt.Errorf("drift: Warmup = %d", c.Warmup)
	case c.Drift < 0:
		return fmt.Errorf("drift: Drift = %v", c.Drift)
	case c.FirstHopMs < 0 || c.PerHopMs < 0:
		return fmt.Errorf("drift: negative delay")
	}
	return nil
}

// DriftEpoch is one epoch's measurement for one strategy.
type DriftEpoch struct {
	Epoch    int
	MeanRTMs float64
	// TransferGBHops is the replica-movement volume paid at this
	// epoch's boundary: Σ o_j·C(i, SP_j) over created replicas, in
	// GB·hops.
	TransferGBHops float64
	Replicas       int
}

// DriftResult aggregates a strategy's run.
type DriftResult struct {
	Strategy DriftStrategy
	Epochs   []DriftEpoch
	// MeanRTMs is the request-weighted mean over all epochs.
	MeanRTMs float64
	// TotalTransferGBHops sums the boundary transfer volumes.
	TotalTransferGBHops float64
	// Requests is the total measured request count.
	Requests int
	// Served is the stepper's counters over every measured request
	// (its latency means are not filled in; MeanRTMs above is).
	Served *sim.Metrics
}

// TotalCostMs folds response time and replica movement into one number:
// the summed response time of every measured request plus the transfer
// volume priced at msPerGBHop. This is the "total cost including paid
// transfer costs" the strategies compete on.
func (r *DriftResult) TotalCostMs(msPerGBHop float64) float64 {
	return r.MeanRTMs*float64(r.Requests) + msPerGBHop*r.TotalTransferGBHops
}

// RunDrift simulates the strategy over the drifting workload. The demand
// drift sequence is derived from seed alone, so every strategy sees the
// identical sequence of workloads and request traces. Cancelling ctx
// aborts between request batches with ctx.Err().
func RunDrift(ctx context.Context, sc *scenario.Scenario, strat DriftStrategy, cfg DriftConfig, seed uint64) (*DriftResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := xrand.New(seed)
	driftRand := root.Split("drift")

	// Per-epoch site weights, starting from the scenario's own.
	weights := make([]float64, sc.Sys.M())
	for j, s := range sc.Work.Sites {
		weights[j] = s.Weight
	}
	// The per-server spread stays fixed; demand columns scale with the
	// drifting weights (§5.1's truncated-normal spread is a property of
	// client geography, not of site popularity).
	spread := make([][]float64, sc.Sys.N())
	for i := range spread {
		spread[i] = make([]float64, sc.Sys.M())
		for j := range spread[i] {
			if sc.Work.Sites[j].Weight > 0 {
				spread[i][j] = sc.Sys.Demand[i][j] / sc.Work.Sites[j].Weight
			}
		}
	}

	simCfg := sim.DefaultConfig()
	simCfg.Requests, simCfg.Warmup = cfg.RequestsPerEpoch, cfg.Warmup
	simCfg.UseCache = strat != DriftStaticReplication && strat != DriftAdaptiveReplication

	res := &DriftResult{Strategy: strat}
	var p *core.Placement
	var st *sim.Stepper
	// The controlled strategy closes the loop through the online
	// controller: a model target holds the live placement and the
	// estimator only ever sees the request stream.
	var ctrl *control.Controller
	var target *control.ModelTarget
	var totalRT float64

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		w := workloadWithWeights(sc, spread, weights)

		// (Re)place replicas according to the strategy.
		var transfer float64
		switch {
		case epoch == 0:
			var err error
			if p, err = placeDrift(strat, sc, w); err != nil {
				return nil, err
			}
			transfer = placement.Diff(nil, p).TransferGBHops
			if strat == DriftControlled {
				target = control.NewModelTarget(p)
				ctrl, err = control.New(control.Config{
					Base:           sc.Sys,
					Specs:          sc.Work.Specs(),
					AvgObjectBytes: sc.Work.AvgObjectBytes,
					Target:         target,
				})
				if err != nil {
					return nil, err
				}
			}
			if st, err = sim.NewStepper(sc, p, simCfg); err != nil {
				return nil, err
			}
		case strat == DriftControlled:
			// Epoch boundary: one reconcile round against the demand
			// estimated from the previous epoch's requests.
			rep, err := ctrl.Reconcile()
			if err != nil {
				return nil, err
			}
			if rep.Outcome == control.OutcomeApplied {
				transfer = rep.Diff.TransferGBHops
				p = target.Placement()
				if err := st.SetPlacement(p, nil); err != nil {
					return nil, err
				}
			}
		case strat == DriftAdaptiveReplication || strat == DriftAdaptiveHybrid:
			newP, err := placeDrift(strat, sc, w)
			if err != nil {
				return nil, err
			}
			transfer = placement.Diff(p, newP).TransferGBHops
			p = newP
			if err := st.SetPlacement(p, nil); err != nil {
				return nil, err
			}
		}

		// Simulate the epoch on the drifted workload.
		stream := workload.NewStream(w, root.Split(fmt.Sprintf("trace-%d", epoch)))
		warm := 0
		if epoch == 0 {
			warm = cfg.Warmup
		}
		var rtSum float64
		for t := 0; t < warm+cfg.RequestsPerEpoch; t++ {
			if t%4096 == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			req := stream.Next()
			if ctrl != nil {
				ctrl.Estimator().Observe(req.Server, req.Site)
			}
			measured := t >= warm
			hops, _ := st.Step(req, measured)
			if measured {
				rtSum += cfg.FirstHopMs + cfg.PerHopMs*hops
			}
		}
		res.Epochs = append(res.Epochs, DriftEpoch{
			Epoch:          epoch,
			MeanRTMs:       rtSum / float64(cfg.RequestsPerEpoch),
			TransferGBHops: transfer,
			Replicas:       p.Replicas(),
		})
		totalRT += rtSum
		res.TotalTransferGBHops += transfer

		// Drift the weights for the next epoch.
		if epoch < cfg.Epochs-1 {
			sum := 0.0
			for j := range weights {
				weights[j] *= math.Exp(cfg.Drift * driftRand.NormFloat64())
				sum += weights[j]
			}
			for j := range weights {
				weights[j] /= sum
			}
		}
	}
	res.Served = st.Metrics()
	res.Requests = res.Served.Requests
	res.MeanRTMs = totalRT / float64(res.Requests)
	return res, nil
}

// placeDrift builds the strategy's placement on the epoch's demand w:
// the scenario's costs and capacities under the drifted demand matrix.
func placeDrift(strat DriftStrategy, sc *scenario.Scenario, w *workload.Workload) (*core.Placement, error) {
	sys, err := sc.Sys.WithDemand(w.Demand)
	if err != nil {
		return nil, err
	}
	switch strat {
	case DriftCaching:
		return core.NewPlacement(sys), nil
	case DriftStaticReplication, DriftAdaptiveReplication:
		return placement.GreedyGlobal(sys).Placement, nil
	case DriftStaticHybrid, DriftAdaptiveHybrid, DriftControlled:
		res, err := placement.Hybrid(sys, placement.HybridConfig{
			Specs:          w.Specs(),
			AvgObjectBytes: sc.Work.AvgObjectBytes,
		})
		if err != nil {
			return nil, err
		}
		return res.Placement, nil
	default:
		return nil, fmt.Errorf("drift: unknown strategy %q", strat)
	}
}

// workloadWithWeights derives the epoch's workload view (shared catalogs,
// drifted demand) for stream generation and the placements' inputs.
func workloadWithWeights(sc *scenario.Scenario, spread [][]float64, weights []float64) *workload.Workload {
	w := *sc.Work
	w.Demand = make([][]float64, len(sc.Work.Demand))
	for i := range w.Demand {
		w.Demand[i] = make([]float64, len(weights))
		for j := range w.Demand[i] {
			w.Demand[i][j] = spread[i][j] * weights[j]
		}
	}
	return &w
}

// DriftRow summarizes one strategy over the drifting workload.
type DriftRow struct {
	Strategy            DriftStrategy
	MeanRTMs            float64
	FirstEpochRTMs      float64
	LastEpochRTMs       float64
	TotalTransferGBHops float64
}

// DriftComparison grounds the paper's §2.1 motivation: under popularity
// drift, static replica placements decay while caches adapt for free,
// and adaptive re-placement buys latency only by hauling replicas around
// the network. All strategies see the identical drift and trace
// sequences.
func DriftComparison(ctx context.Context, opts Options, cfg DriftConfig) ([]DriftRow, error) {
	sc, err := scenario.Build(opts.Base)
	if err != nil {
		return nil, err
	}
	strategies := []DriftStrategy{
		DriftCaching,
		DriftStaticReplication,
		DriftStaticHybrid,
		DriftAdaptiveReplication,
		DriftAdaptiveHybrid,
	}
	rows := make([]DriftRow, len(strategies))
	err = parallelFor(len(strategies), func(si int) error {
		res, err := RunDrift(ctx, sc, strategies[si], cfg, opts.TraceSeed)
		if err != nil {
			return err
		}
		rows[si] = DriftRow{
			Strategy:            res.Strategy,
			MeanRTMs:            res.MeanRTMs,
			FirstEpochRTMs:      res.Epochs[0].MeanRTMs,
			LastEpochRTMs:       res.Epochs[len(res.Epochs)-1].MeanRTMs,
			TotalTransferGBHops: res.TotalTransferGBHops,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatDriftRows renders the drift comparison.
func FormatDriftRows(rows []DriftRow, cfg DriftConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§2.1 grounded — popularity drift over %d epochs (σ=%.1f per epoch)\n",
		cfg.Epochs, cfg.Drift)
	b.WriteString("strategy               mean RT (ms)  epoch0 RT  epochN RT  transfer (GB·hops)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12.2f %10.2f %10.2f %19.2f\n",
			r.Strategy, r.MeanRTMs, r.FirstEpochRTMs, r.LastEpochRTMs, r.TotalTransferGBHops)
	}
	return b.String()
}
