// Command cdnsim regenerates the paper's evaluation (§5): the
// response-time CDFs of Figures 3–5, the model-accuracy comparison of
// Figure 6 and the §5.2 headline latency-gain summary — plus the
// beyond-the-paper figures of DESIGN.md §5 and the scale sweep of
// DESIGN.md §10 (-figure scale re-runs the mechanism comparison at
// ×1/×2/×4/×10 paper size; it is deliberately not part of "all").
// `cdnsim -h` lists every -figure value, from the one table in this
// file.
//
// Usage:
//
//	cdnsim -figure 3            # Figure 3 at paper scale
//	cdnsim -figure all -quick   # everything at reduced scale
//	cdnsim -figure 6 -requests 200000 -seed 7 -traceseed 3
//	cdnsim -figure scale -quick # scale sweep, ×1/×2 only
//
// With -trace it instead runs one hybrid-placement simulation that
// writes each measured request's span tree as JSONL (the obs.Span
// schema cdnd -trace writes too) and prints an end-of-run metrics
// snapshot reconciling measured per-edge hit ratios against the LRU
// model's predictions:
//
//	cdnsim -trace out.jsonl -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/lrumodel"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back to main so the profile-writing
// defers run before os.Exit.
func realMain() int {
	var (
		figure   = flag.String("figure", "all", "which output to regenerate: "+figureNames()+" (all leaves out seeds and scale)")
		quick    = flag.Bool("quick", false, "use the reduced-scale configuration (fast smoke run)")
		seed     = flag.Uint64("seed", 1, "scenario seed (topology, workload, placement)")
		trace    = flag.Uint64("traceseed", 99, "request-trace seed")
		requests = flag.Int("requests", 0, "override the measured request count")
		warmup   = flag.Int("warmup", 0, "override the cache warm-up request count")
		objects  = flag.Int("objects", 0, "override L, the objects per site")
		theta    = flag.Float64("theta", 0, "override the Zipf parameter θ")
		model    = flag.String("model", "", "analytical hit-ratio model the hybrid placement optimizes with: eq1 (default), che or random")
		plot     = flag.Bool("plot", false, "render CDF panels as ASCII charts instead of tables")
		tracePth = flag.String("trace", "", "write the JSONL span trace of one hybrid run to this file and print a metrics snapshot (skips -figure)")
		par      = flag.Int("parallelism", 0, "simulator worker count (0 = all cores, 1 = sequential); results are identical at any value")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	renderPlots = *plot
	quickRun = *quick

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdnsim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cdnsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cdnsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cdnsim:", err)
			}
		}()
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Base.Seed = *seed
	opts.TraceSeed = *trace
	opts.Sim.Parallelism = *par
	// 0 keeps the configuration's value; a negative one is a mistake,
	// not a request for the default.
	for _, o := range []struct {
		name string
		neg  bool
	}{
		{"requests", *requests < 0},
		{"warmup", *warmup < 0},
		{"objects", *objects < 0},
		{"theta", !(*theta >= 0)}, // NaN too
		{"parallelism", *par < 0},
	} {
		if o.neg {
			fmt.Fprintf(os.Stderr, "cdnsim: -%s %s: must be ≥ 0 (0 keeps the default)\n", o.name, flag.Lookup(o.name).Value)
			return 1
		}
	}
	if *requests > 0 {
		opts.Sim.Requests = *requests
	}
	if *warmup > 0 {
		opts.Sim.Warmup = *warmup
	}
	if *objects > 0 {
		opts.Base.Workload.ObjectsPerSite = *objects
	}
	if *theta > 0 {
		opts.Base.Workload.Theta = *theta
	}
	if _, err := lrumodel.ParseModelKind(*model); err != nil {
		fmt.Fprintln(os.Stderr, "cdnsim: -model:", err)
		return 1
	}
	opts.Model = *model

	// Ctrl-C cancels the run between request batches instead of killing
	// the process mid-figure (profiles still get written).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	if *tracePth != "" {
		err = runTraced(ctx, opts, *tracePth)
	} else {
		err = run(ctx, os.Stdout, *figure, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdnsim:", err)
		return 1
	}
	return 0
}

// renderPlots switches the CDF panels from tables to ASCII charts.
var renderPlots bool

// quickRun records -quick so figure-specific sweeps (scale) can shrink.
var quickRun bool

// figure is one -figure value. The table below is the only list of
// them: the flag's help, "all", the unknown-figure error and the golden
// test all range over it.
type figure struct {
	name string
	// inAll marks the figures -figure all renders, in table order.
	inAll bool
	run   func(ctx context.Context, w io.Writer, opts experiments.Options) error
}

var figures = []figure{
	{"3", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, formatPanels)(experiments.Figure3(ctx, opts))
	}},
	{"4", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, formatPanels)(experiments.Figure4(ctx, opts))
	}},
	{"5", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, formatPanels)(experiments.Figure5(ctx, opts))
	}},
	{"6", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatFig6)(experiments.Figure6(ctx, opts))
	}},
	{"summary", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatSummary)(experiments.Summary(ctx, opts))
	}},
	{"ablations", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		if err := emit(w, experiments.FormatPolicyRows)(experiments.CachePolicyAblation(ctx, opts)); err != nil {
			return err
		}
		if err := emit(w, experiments.FormatThetaRows)(experiments.ThetaSweep(ctx, opts, []float64{0.6, 0.8, 1.0, 1.2, 1.4})); err != nil {
			return err
		}
		return emit(w, experiments.FormatPlacementRows)(experiments.PlacementAblation(ctx, opts))
	}},
	{"clusters", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		for _, n := range []int{2, 4, 8} {
			format := func(rows []experiments.ClusterRow) string { return experiments.FormatClusterRows(rows, n) }
			if err := emit(w, format)(experiments.ClusterComparison(ctx, opts, n)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"availability", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatAvailabilityRows)(experiments.AvailabilityComparison(ctx, opts, []int{0, 2, 5, 10}, 2))
	}},
	{"drift", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		cfg := experiments.DefaultDriftConfig()
		format := func(rows []experiments.DriftRow) string { return experiments.FormatDriftRows(rows, cfg) }
		return emit(w, format)(experiments.DriftComparison(ctx, opts, cfg))
	}},
	{"dynamic", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatDynamicRows)(experiments.DynamicComparison(ctx, opts, experiments.DefaultDynamicOptions()))
	}},
	{"kmedian", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatKMedianRows)(experiments.KMedianQuality(ctx, opts, []int{1, 2, 3}))
	}},
	{"model", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		if err := emit(w, experiments.FormatModelCompareRows)(experiments.ModelComparison(ctx, opts, []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4})); err != nil {
			return err
		}
		if err := emit(w, experiments.FormatPolicyModelRows)(experiments.ModelPolicyComparison(ctx, opts, []float64{0.02, 0.05, 0.1, 0.2})); err != nil {
			return err
		}
		return emit(w, experiments.FormatRobustnessRows)(experiments.ModelRobustness(ctx, opts, []float64{0, 0.2, 0.4, 0.6}))
	}},
	{"updates", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatUpdateRows)(experiments.UpdateSweep(ctx, opts, []float64{0, 0.1, 0.25, 0.5, 1.0}))
	}},
	{"heterogeneity", true, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatHeterogeneityRows)(experiments.HeterogeneityComparison(ctx, opts, []float64{0, 0.4, 0.8, 1.2}))
	}},
	{"seeds", false, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		return emit(w, experiments.FormatGainStats)(experiments.SummaryOverSeeds(ctx, opts, []uint64{1, 2, 3, 4, 5}))
	}},
	// scale sweeps ×1..×10 paper size and prints wall times.
	{"scale", false, func(ctx context.Context, w io.Writer, opts experiments.Options) error {
		factors := []int{1, 2, 4, 10}
		if quickRun {
			factors = []int{1, 2}
		}
		return emit(w, experiments.FormatScaleRows)(experiments.ScaleComparison(ctx, opts, factors))
	}},
}

// figureNames lists the table for the help text and the error message.
func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ", ") + " or all"
}

// emit prints one experiment's formatted rows, or passes its error on.
func emit[R any](w io.Writer, format func(R) string) func(R, error) error {
	return func(rows R, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(w, format(rows))
		return nil
	}
}

// formatPanels renders a figure's CDF panels as tables, or as ASCII
// charts under -plot.
func formatPanels(panels []experiments.Panel) string {
	format := experiments.FormatPanel
	if renderPlots {
		format = experiments.FormatPanelPlot
	}
	out := make([]string, len(panels))
	for i, p := range panels {
		out[i] = format(p)
	}
	return strings.Join(out, "\n")
}

func run(ctx context.Context, w io.Writer, name string, opts experiments.Options) error {
	known := false
	for _, f := range figures {
		if f.name == name || (name == "all" && f.inAll) {
			known = true
			if err := f.run(ctx, w, opts); err != nil {
				return err
			}
		}
	}
	if !known {
		return fmt.Errorf("unknown -figure %q (want %s)", name, figureNames())
	}
	return nil
}
