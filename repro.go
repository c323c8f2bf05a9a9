// Package repro is a Go reproduction of "Increasing the Performance of
// CDNs Using Replication and Caching: A Hybrid Approach" (Bakiras &
// Loukopoulos, IPDPS/IPPS 2005).
//
// The package is the library's quick-start over the implementation:
//
//   - internal/lrumodel — the analytical LRU hit-ratio model (§3.2)
//   - internal/placement — greedy-global, hybrid (Figure 2) and ad-hoc
//     replica placement algorithms (§4)
//   - internal/scenario — transit–stub topology + SURGE workload assembly
//     (§5.1)
//   - internal/sim — the trace-driven CDN simulator (§5); a run's span
//     trace (SimConfig.Tracer) replays through it (SimulateTrace)
//
// The Figure 3–6 and §5.2 summary runners live in internal/experiments;
// cmd/cdnsim runs them.
//
// Quick start:
//
//	sc := repro.MustBuildScenario(repro.DefaultScenario())
//	res, _ := repro.Place(sc, repro.PlacementConfig{Strategy: repro.StrategyHybrid})
//	m := repro.MustSimulate(context.Background(), sc, res.Placement, repro.DefaultSim(), 1)
//	fmt.Println(m.MeanRTMs)
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Re-exported configuration and result types. See the internal packages
// for full documentation of each.
type (
	// ScenarioConfig sizes a full experiment instance (§5.1).
	ScenarioConfig = scenario.Config
	// Scenario is a built instance: topology, workload, cost model.
	Scenario = scenario.Scenario
	// SimConfig controls the trace-driven simulator (§5).
	SimConfig = sim.Config
	// Metrics is one simulation run's measured results.
	Metrics = sim.Metrics
	// Placement is the replication state X plus SN tables (§3.1).
	Placement = core.Placement
	// PlacementResult couples a placement with its predicted cost.
	PlacementResult = placement.Result
	// Options scales the figure runners; its Base is a scenario
	// configuration at paper or quick scale.
	Options = experiments.Options
)

// DefaultScenario returns the paper's §5.1 setup (50 servers, 20 sites,
// ~560-node transit–stub topology, 5% capacity).
func DefaultScenario() ScenarioConfig { return scenario.Default() }

// DefaultSim returns the paper's latency parameters (20 ms first hop,
// 20 ms/hop) with a 500k-request measured phase.
func DefaultSim() SimConfig { return sim.DefaultConfig() }

// DefaultOptions returns paper-scale figure-runner options.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns reduced-scale options for smoke runs.
func QuickOptions() Options { return experiments.QuickOptions() }

// Rand is the deterministic random source used throughout the library.
type Rand = xrand.Source

// NewRand returns a deterministic random source (for request streams and
// samplers).
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// BuildScenario deterministically assembles an experiment instance.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) { return scenario.Build(cfg) }

// MustBuildScenario is BuildScenario for known-good configurations.
func MustBuildScenario(cfg ScenarioConfig) *Scenario { return scenario.MustBuild(cfg) }

// Strategy selects the placement algorithm Place runs — the §5.2
// mechanisms as one enumeration instead of one constructor each.
type Strategy string

// The placement strategies.
const (
	// StrategyHybrid is the paper's Figure 2 algorithm: replicas where
	// the LRU model says they beat caching, free storage left as cache.
	StrategyHybrid Strategy = "hybrid"
	// StrategyReplication is the greedy-global baseline (no caching).
	StrategyReplication Strategy = "replication"
	// StrategyCaching places no replicas: all storage is cache.
	StrategyCaching Strategy = "caching"
	// StrategyAdHoc reserves PlacementConfig.CacheFrac of storage for
	// caching and fills the rest with greedy-global replicas (§5.2's
	// fixed-split strawman).
	StrategyAdHoc Strategy = "adhoc"
)

// PlacementConfig parameterizes Place.
type PlacementConfig struct {
	// Strategy selects the algorithm; the zero value is StrategyHybrid.
	Strategy Strategy
	// CacheFrac is the cache share for StrategyAdHoc (ignored
	// otherwise).
	CacheFrac float64
	// Model selects the analytical hit-ratio model the hybrid optimizes
	// with ("eq1", "che", "random"); empty means eq1, the
	// paper's own model (StrategyHybrid only; ignored by the others).
	Model string
	// Parallelism fans out the hybrid benefit-matrix computation
	// (0 = all cores).
	Parallelism int
}

// Place runs the selected placement strategy on the scenario.
func Place(sc *Scenario, cfg PlacementConfig) (*PlacementResult, error) {
	switch cfg.Strategy {
	case StrategyHybrid, "":
		return placement.Hybrid(sc.Sys, placement.HybridConfig{
			Specs:          sc.Work.Specs(),
			AvgObjectBytes: sc.Work.AvgObjectBytes,
			Model:          cfg.Model,
			Parallelism:    cfg.Parallelism,
		})
	case StrategyReplication:
		return placement.GreedyGlobalOpts(sc.Sys, placement.GreedyConfig{
			Parallelism: cfg.Parallelism,
		}), nil
	case StrategyCaching:
		return placement.None(sc.Sys), nil
	case StrategyAdHoc:
		return placement.AdHoc(sc.Sys, cfg.CacheFrac)
	default:
		return nil, fmt.Errorf("repro: unknown placement strategy %q", cfg.Strategy)
	}
}

// Simulate runs the trace-driven simulator; seed fixes the request trace
// so different placements can be compared on identical traffic. The run
// shards across cfg.Parallelism workers (0 = all cores) and is
// bit-identical to a sequential run of the same seed. Cancelling ctx
// aborts between request batches with ctx.Err().
func Simulate(ctx context.Context, sc *Scenario, p *Placement, cfg SimConfig, seed uint64) (*Metrics, error) {
	return sim.RunParallel(ctx, sc, p, cfg, xrand.New(seed))
}

// MustSimulate is Simulate for known-good configurations.
func MustSimulate(ctx context.Context, sc *Scenario, p *Placement, cfg SimConfig, seed uint64) *Metrics {
	m, err := Simulate(ctx, sc, p, cfg, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Tracer records a run's span trace as JSONL (SimConfig.Tracer): a serve
// span per measured request, in the schema the live cluster writes. Flush
// it before reading the output.
type Tracer = obs.Tracer

// NewTracer returns a Tracer writing to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// SimulateTrace replays a JSONL span trace — what SimConfig.Tracer and
// the live cluster's edges write — through the simulator: each serve
// span that answers a client is one request (sim.SpanSource). A traced
// run at Warmup 0 replays bit-identically.
func SimulateTrace(ctx context.Context, sc *Scenario, p *Placement, cfg SimConfig, r io.Reader) (*Metrics, error) {
	src, err := sim.SpanSource(r)
	if err != nil {
		return nil, err
	}
	return sim.RunSourceParallel(ctx, sc, p, cfg, src)
}

// The analytical hit-ratio models (§3.2 and beyond), usable stand-alone:
// SiteSpec describes a site's object statistics and HitModel predicts
// per-site hit ratios at one server for any cache size under the
// selected model kind.
type (
	SiteSpec = lrumodel.SiteSpec
	// HitModel is the hit-ratio predictor the placement stack consumes,
	// under the eq1, che or random law.
	HitModel = lrumodel.Predictor
	// HitModelConfig configures NewHitModel.
	HitModelConfig = lrumodel.ModelConfig
)

// NewHitModel builds an analytical hit-ratio model for one server under
// the selected kind; invalid configuration (including an unknown model
// name) is reported as an error listing the valid names.
func NewHitModel(cfg HitModelConfig) (*HitModel, error) { return lrumodel.New(cfg) }
