// Package repro is a Go reproduction of "Increasing the Performance of
// CDNs Using Replication and Caching: A Hybrid Approach" (Bakiras &
// Loukopoulos, IPDPS/IPPS 2005).
//
// The package is a thin facade over the implementation:
//
//   - internal/lrumodel — the analytical LRU hit-ratio model (§3.2)
//   - internal/placement — greedy-global, hybrid (Figure 2) and ad-hoc
//     replica placement algorithms (§4)
//   - internal/scenario — transit–stub topology + SURGE workload assembly
//     (§5.1)
//   - internal/sim — the trace-driven CDN simulator (§5)
//   - internal/experiments — the Figure 3–6 and §5.2 summary runners
//
// Quick start:
//
//	sc := repro.MustBuildScenario(repro.DefaultScenario())
//	pl, _ := repro.Place(sc, repro.PlacementConfig{Strategy: repro.StrategyHybrid})
//	m := repro.MustSimulate(context.Background(), sc, pl, repro.DefaultSim(), 1)
//	fmt.Println(m.MeanRTMs)
//
// or regenerate a whole figure:
//
//	panels, _ := repro.Figure3(context.Background(), repro.DefaultOptions())
//	fmt.Println(repro.FormatPanel(panels[0]))
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
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
	// Options scales the figure runners.
	Options = experiments.Options
	// Panel is one sub-figure of Figures 3–5.
	Panel = experiments.Panel
	// Fig6Row is one predicted-vs-actual pair of Figure 6.
	Fig6Row = experiments.Fig6Row
	// GainRow is one line of the §5.2 headline summary.
	GainRow = experiments.GainRow
	// Mechanism names a content-delivery configuration.
	Mechanism = experiments.Mechanism
)

// The compared mechanisms.
const (
	MechReplication = experiments.MechReplication
	MechCaching     = experiments.MechCaching
	MechHybrid      = experiments.MechHybrid
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

// PlacementStep records one replica-creation decision of an algorithm.
type PlacementStep = placement.Step

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
	// Observer, when non-nil, is invoked after every replica creation —
	// the iteration-by-iteration view of the placement loop
	// (StrategyHybrid only; ignored by the others).
	Observer func(PlacementStep)
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
			Observer:       cfg.Observer,
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

// Figure3 regenerates the λ=0 mechanism-comparison CDFs (5% and 10%
// capacity panels).
func Figure3(ctx context.Context, opts Options) ([]Panel, error) {
	return experiments.Figure3(ctx, opts)
}

// Figure4 regenerates the λ=0.1 (strong-consistency) comparison.
func Figure4(ctx context.Context, opts Options) ([]Panel, error) {
	return experiments.Figure4(ctx, opts)
}

// Figure5 regenerates the hybrid vs ad-hoc fixed-split comparison.
func Figure5(ctx context.Context, opts Options) ([]Panel, error) {
	return experiments.Figure5(ctx, opts)
}

// Figure6 regenerates the model-accuracy rows (predicted vs actual cost
// per request).
func Figure6(ctx context.Context, opts Options) ([]Fig6Row, error) {
	return experiments.Figure6(ctx, opts)
}

// Summary computes the §5.2 headline latency gains.
func Summary(ctx context.Context, opts Options) ([]GainRow, error) {
	return experiments.Summary(ctx, opts)
}

// Trace recording and replay: a recorded request trace replays through
// the simulator bit-identically (internal/trace).
type (
	TraceHeader = trace.Header
	TraceWriter = trace.Writer
	TraceReader = trace.Reader
	// Request is one synthetic HTTP request of the workload.
	Request = workload.Request
)

// NewTraceWriter starts writing a binary request trace.
func NewTraceWriter(w io.Writer, h TraceHeader) (*TraceWriter, error) {
	return trace.NewWriter(w, h)
}

// NewTraceReader opens a binary request trace.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// Observability layer (internal/obs): atomic counters, gauges and
// latency histograms in a Registry rendering Prometheus text format and
// expvar-style JSON, plus the per-request JSONL event tracer shared by
// the simulator (SimConfig.Tracer/Metrics) and the HTTP cluster.
type (
	Registry = obs.Registry
	Tracer   = obs.Tracer
	// TraceEvent is one JSONL record of the shared request schema.
	TraceEvent = obs.Event
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer starts a JSONL event tracer writing to w; Flush it before
// reading the output.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// ReadTraceEvents parses a JSONL trace back into events.
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// SimulateTrace replays a recorded trace through the simulator.
func SimulateTrace(ctx context.Context, sc *Scenario, p *Placement, cfg SimConfig, tr *TraceReader) (*Metrics, error) {
	return sim.RunSource(ctx, sc, p, cfg, tr)
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

// Ablation rows (beyond the paper; see DESIGN.md §5).
type (
	PolicyRow    = experiments.PolicyRow
	ThetaRow     = experiments.ThetaRow
	PlacementRow = experiments.PlacementRow
	ClusterRow   = experiments.ClusterRow
	// AvailabilityRow grounds the paper's §1 availability argument.
	AvailabilityRow = experiments.AvailabilityRow
)

// AvailabilityComparison crashes origins (and optionally servers) after
// cache warm-up and measures how much traffic each mechanism still
// serves.
func AvailabilityComparison(ctx context.Context, opts Options, originFailures []int, failedServers int) ([]AvailabilityRow, error) {
	return experiments.AvailabilityComparison(ctx, opts, originFailures, failedServers)
}

// FormatAvailabilityRows renders the availability comparison.
func FormatAvailabilityRows(rows []AvailabilityRow) string {
	return experiments.FormatAvailabilityRows(rows)
}

// Failure-aware simulation (internal/fault + sim.RunWithSchedule): a
// deterministic schedule of crash / recover / slow events over virtual
// time (the global request index), driven through the simulator with
// per-phase availability accounting.
type (
	// FaultEvent is one scheduled state change of a server or origin.
	FaultEvent = fault.Event
	// FaultSchedule is a validated, time-ordered event list.
	FaultSchedule = fault.Schedule
	// PhaseMetrics is one inter-event window's measured results.
	PhaseMetrics = sim.PhaseMetrics
	// ScheduleMetrics aggregates a churn run: overall failure metrics
	// plus the per-phase breakdown.
	ScheduleMetrics = sim.ScheduleMetrics
)

// Fault event components and kinds, for building schedules by hand.
const (
	FaultServer  = fault.Server
	FaultOrigin  = fault.Origin
	FaultCrash   = fault.Crash
	FaultRecover = fault.Recover
	FaultSlow    = fault.Slow
)

// NewFaultSchedule validates and time-orders a fault event list.
func NewFaultSchedule(events ...FaultEvent) (*FaultSchedule, error) {
	return fault.NewSchedule(events...)
}

// SimulateWithSchedule runs the trace-driven simulator while applying the
// fault schedule as virtual time passes, re-resolving redirection around
// dead components as events fire. The run is sequential and
// deterministic for a fixed seed.
func SimulateWithSchedule(ctx context.Context, sc *Scenario, p *Placement, cfg SimConfig, sched *FaultSchedule, seed uint64) (*ScheduleMetrics, error) {
	return sim.RunWithSchedule(ctx, sc, p, cfg, sched, xrand.New(seed))
}

// Availability-under-churn experiment types.
type (
	ChurnRow    = experiments.ChurnRow
	ChurnConfig = experiments.ChurnConfig
)

// DefaultChurn returns the default churn shape (a fifth of the servers
// and one origin crash, each down for a quarter of the measured phase).
func DefaultChurn() ChurnConfig { return experiments.DefaultChurn() }

// ChurnComparison runs every mechanism through one shared deterministic
// fault schedule — crashes and recoveries mid-measurement — and reports
// overall and worst-phase served fractions.
func ChurnComparison(ctx context.Context, opts Options, cfg ChurnConfig) ([]ChurnRow, error) {
	return experiments.ChurnComparison(ctx, opts, cfg)
}

// FormatChurnRows renders the availability-under-churn comparison.
func FormatChurnRows(rows []ChurnRow) string { return experiments.FormatChurnRows(rows) }

// ScaleRow is one growth factor of the scale sweep.
type ScaleRow = experiments.ScaleRow

// ScaleScenario grows a scenario configuration by an integer factor:
// servers, sites and transit domains ×factor, per-server capacity held
// constant in site-equivalents.
func ScaleScenario(cfg ScenarioConfig, factor int) ScenarioConfig {
	return scenario.Scale(cfg, factor)
}

// ScaleComparison re-runs the Figure 3 mechanism comparison at each
// growth factor and measures scenario-build time, hybrid placement time
// and simulator throughput alongside, showing whether the hybrid's
// advantage (and the engines' practicality) hold away from paper scale.
func ScaleComparison(ctx context.Context, opts Options, factors []int) ([]ScaleRow, error) {
	return experiments.ScaleComparison(ctx, opts, factors)
}

// FormatScaleRows renders the scale sweep.
func FormatScaleRows(rows []ScaleRow) string { return experiments.FormatScaleRows(rows) }

// Drift experiment types (§2.1 grounded: static placements vs drifting
// popularity).
type (
	DriftRow      = experiments.DriftRow
	DriftConfig   = experiments.DriftConfig
	DriftStrategy = experiments.DriftStrategy
)

// DefaultDriftConfig returns the default drifting-workload setup.
func DefaultDriftConfig() DriftConfig { return experiments.DefaultDriftConfig() }

// DriftComparison runs all replica-management strategies over an
// identical drifting workload and reports latency and transfer volume.
func DriftComparison(ctx context.Context, opts Options, cfg DriftConfig) ([]DriftRow, error) {
	return experiments.DriftComparison(ctx, opts, cfg)
}

// FormatDriftRows renders the drift comparison.
func FormatDriftRows(rows []DriftRow, cfg DriftConfig) string {
	return experiments.FormatDriftRows(rows, cfg)
}

// Dynamic-catalog experiment types: publish/perish churn, flash crowds
// and segment chains over a fixed slot space (internal/workload's
// DynamicStream), compared across mechanisms including the
// staleness-aware control plane.
type (
	DynamicRow            = experiments.DynamicRow
	DynamicCatalogOptions = experiments.DynamicOptions
	// DynamicWorkloadConfig parameterizes the churning stream itself,
	// for driving the simulator or daemons directly.
	DynamicWorkloadConfig = workload.DynamicConfig
)

// MechControlled is the online control plane over a churning catalog
// (the fourth mechanism of the dynamic-catalog comparison).
const MechControlled = experiments.MechControlled

// DefaultDynamicCatalogOptions returns the default churn sweep (three
// rates, flash crowds and segment chains on).
func DefaultDynamicCatalogOptions() DynamicCatalogOptions {
	return experiments.DefaultDynamicOptions()
}

// DynamicComparison runs caching, replication, hybrid and
// controlled-hybrid on the static catalog and at each churn rate, on
// identical stream seeds.
func DynamicComparison(ctx context.Context, opts Options, dyn DynamicCatalogOptions) ([]DynamicRow, error) {
	return experiments.DynamicComparison(ctx, opts, dyn)
}

// FormatDynamicRows renders the dynamic-catalog comparison.
func FormatDynamicRows(rows []DynamicRow) string { return experiments.FormatDynamicRows(rows) }

// KMedianRow is one k of the k-median quality experiment (§2.2's
// placement-heuristic axis, grounded).
type KMedianRow = experiments.KMedianRow

// KMedianQuality measures greedy and swap placement heuristics against
// the exact per-site k-median optimum.
func KMedianQuality(ctx context.Context, opts Options, ks []int) ([]KMedianRow, error) {
	return experiments.KMedianQuality(ctx, opts, ks)
}

// FormatKMedianRows renders the k-median quality experiment.
func FormatKMedianRows(rows []KMedianRow) string { return experiments.FormatKMedianRows(rows) }

// Model-science experiment rows: the Eq.(1)/(2)-vs-Che ablation, the RANDOM/FIFO policy validation and the IRM-assumption
// stress test.
type (
	ModelCompareRow = experiments.ModelCompareRow
	PolicyModelRow  = experiments.PolicyModelRow
	RobustnessRow   = experiments.RobustnessRow
)

// ModelComparison sweeps cache sizes and compares the paper's model and
// Che's approximation against a simulated LRU.
func ModelComparison(ctx context.Context, opts Options, slotFracs []float64) ([]ModelCompareRow, error) {
	return experiments.ModelComparison(ctx, opts, slotFracs)
}

// ModelPolicyComparison validates the analytical RANDOM/FIFO model
// against the simulated FIFO and RANDOM cache variants.
func ModelPolicyComparison(ctx context.Context, opts Options, slotFracs []float64) ([]PolicyModelRow, error) {
	return experiments.ModelPolicyComparison(ctx, opts, slotFracs)
}

// ModelRobustness measures prediction error as the workload gains
// temporal locality the IRM-based model does not know about.
func ModelRobustness(ctx context.Context, opts Options, probs []float64) ([]RobustnessRow, error) {
	return experiments.ModelRobustness(ctx, opts, probs)
}

// FormatModelCompareRows, FormatPolicyModelRows and FormatRobustnessRows
// render those sweeps.
func FormatModelCompareRows(rows []ModelCompareRow) string {
	return experiments.FormatModelCompareRows(rows)
}

// FormatPolicyModelRows renders the RANDOM/FIFO validation sweep.
func FormatPolicyModelRows(rows []PolicyModelRow) string {
	return experiments.FormatPolicyModelRows(rows)
}

// FormatRobustnessRows renders the IRM stress test.
func FormatRobustnessRows(rows []RobustnessRow) string {
	return experiments.FormatRobustnessRows(rows)
}

// UpdateRow is one write-intensity level of the read+update sweep.
type UpdateRow = experiments.UpdateRow

// UpdateSweep extends the placement objective with update-propagation
// costs ([19, 28]) and sweeps the write intensity.
func UpdateSweep(ctx context.Context, opts Options, ratios []float64) ([]UpdateRow, error) {
	return experiments.UpdateSweep(ctx, opts, ratios)
}

// FormatUpdateRows renders the read+update sweep.
func FormatUpdateRows(rows []UpdateRow) string { return experiments.FormatUpdateRows(rows) }

// HeterogeneityRow is one capacity-spread level of the robustness sweep.
type HeterogeneityRow = experiments.HeterogeneityRow

// HeterogeneityComparison relaxes the homogeneous-capacity assumption
// and re-runs the mechanism comparison.
func HeterogeneityComparison(ctx context.Context, opts Options, spreads []float64) ([]HeterogeneityRow, error) {
	return experiments.HeterogeneityComparison(ctx, opts, spreads)
}

// FormatHeterogeneityRows renders the heterogeneity sweep.
func FormatHeterogeneityRows(rows []HeterogeneityRow) string {
	return experiments.FormatHeterogeneityRows(rows)
}

// GainStats aggregates the headline gains over several scenario seeds.
type GainStats = experiments.GainStats

// SummaryOverSeeds repeats the §5.2 summary over multiple scenario seeds
// and reports mean ± std of the gains.
func SummaryOverSeeds(ctx context.Context, opts Options, seeds []uint64) ([]GainStats, error) {
	return experiments.SummaryOverSeeds(ctx, opts, seeds)
}

// FormatGainStats renders the multi-seed summary.
func FormatGainStats(rows []GainStats) string { return experiments.FormatGainStats(rows) }

// ClusterComparison settles the paper's §5.3 future-work claim by
// comparing per-site replication, per-cluster replication ([6]-style
// popularity bands), pure caching, and the hybrid algorithm at both
// granularities on one trace.
func ClusterComparison(ctx context.Context, opts Options, clustersPerSite int) ([]ClusterRow, error) {
	return experiments.ClusterComparison(ctx, opts, clustersPerSite)
}

// FormatClusterRows renders the per-cluster comparison.
func FormatClusterRows(rows []ClusterRow, clustersPerSite int) string {
	return experiments.FormatClusterRows(rows, clustersPerSite)
}

// CachePolicyAblation compares LRU against FIFO, LFU and delayed-LRU
// under the hybrid placement on identical traces.
func CachePolicyAblation(ctx context.Context, opts Options) ([]PolicyRow, error) {
	return experiments.CachePolicyAblation(ctx, opts)
}

// ThetaSweep quantifies the §5.2 remark that ad-hoc splits are sensitive
// to the Zipf parameter while the hybrid adapts.
func ThetaSweep(ctx context.Context, opts Options, thetas []float64) ([]ThetaRow, error) {
	return experiments.ThetaSweep(ctx, opts, thetas)
}

// PlacementAblation compares placement heuristics with caching enabled
// everywhere.
func PlacementAblation(ctx context.Context, opts Options) ([]PlacementRow, error) {
	return experiments.PlacementAblation(ctx, opts)
}

// FormatPanel, FormatFig6, FormatSummary and the ablation formatters
// render results as the text tables the paper's figures correspond to.
func FormatPanel(p Panel) string { return experiments.FormatPanel(p) }

// FormatPanelPlot renders a panel's CDF curves as an ASCII chart — the
// terminal rendition of the paper's Figures 3–5.
func FormatPanelPlot(p Panel) string           { return experiments.FormatPanelPlot(p) }
func FormatFig6(rows []Fig6Row) string         { return experiments.FormatFig6(rows) }
func FormatSummary(rows []GainRow) string      { return experiments.FormatSummary(rows) }
func FormatPolicyRows(rows []PolicyRow) string { return experiments.FormatPolicyRows(rows) }
func FormatThetaRows(rows []ThetaRow) string   { return experiments.FormatThetaRows(rows) }
func FormatPlacementRows(rows []PlacementRow) string {
	return experiments.FormatPlacementRows(rows)
}
