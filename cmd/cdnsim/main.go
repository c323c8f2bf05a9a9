// Command cdnsim regenerates the paper's evaluation (§5): the
// response-time CDFs of Figures 3–5, the model-accuracy comparison of
// Figure 6 and the §5.2 headline latency-gain summary — plus the
// beyond-the-paper figures of DESIGN.md §5 (ablations, clusters,
// consistency, availability, churn, drift, redirection, kmedian,
// model, updates, heterogeneity, seeds) and the scale sweep of
// DESIGN.md §10 (-figure scale re-runs the mechanism comparison at
// ×1/×2/×4/×10 paper size; it is deliberately not part of "all").
//
// Usage:
//
//	cdnsim -figure 3            # Figure 3 at paper scale
//	cdnsim -figure all -quick   # everything at reduced scale
//	cdnsim -figure 6 -requests 200000 -seed 7 -traceseed 3
//	cdnsim -figure scale -quick # scale sweep, ×1/×2 only
//
// With -trace it instead runs one hybrid-placement simulation that
// writes a JSONL event per measured request (the obs.Event schema) and
// prints an end-of-run metrics snapshot reconciling measured per-edge
// hit ratios against the LRU model's predictions:
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

	"repro"
	"repro/internal/lrumodel"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back to main so the profile-writing
// defers run before os.Exit.
func realMain() int {
	var (
		figure   = flag.String("figure", "all", "which output to regenerate: 3, 4, 5, 6, summary, ablations, clusters, consistency, availability, churn, drift, dynamic, redirection, kmedian, model, updates, heterogeneity, seeds, scale or all (scale sweeps ×1..×10 paper size and is not part of all)")
		quick    = flag.Bool("quick", false, "use the reduced-scale configuration (fast smoke run)")
		seed     = flag.Uint64("seed", 1, "scenario seed (topology, workload, placement)")
		trace    = flag.Uint64("traceseed", 99, "request-trace seed")
		requests = flag.Int("requests", 0, "override the measured request count")
		warmup   = flag.Int("warmup", 0, "override the cache warm-up request count")
		objects  = flag.Int("objects", 0, "override L, the objects per site")
		theta    = flag.Float64("theta", 0, "override the Zipf parameter θ")
		model    = flag.String("model", "", "analytical hit-ratio model the hybrid placement optimizes with: eq1 (default), che, closedform or random")
		plot     = flag.Bool("plot", false, "render CDF panels as ASCII charts instead of tables")
		tracePth = flag.String("trace", "", "write a per-request JSONL trace of one hybrid run to this file and print a metrics snapshot (skips -figure)")
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

	opts := repro.DefaultOptions()
	if *quick {
		opts = repro.QuickOptions()
	}
	opts.Base.Seed = *seed
	opts.TraceSeed = *trace
	opts.Sim.Parallelism = *par
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

func run(ctx context.Context, w io.Writer, figure string, opts repro.Options) error {
	printPanels := func(panels []repro.Panel, err error) error {
		if err != nil {
			return err
		}
		for _, p := range panels {
			if renderPlots {
				fmt.Fprintln(w, repro.FormatPanelPlot(p))
			} else {
				fmt.Fprintln(w, repro.FormatPanel(p))
			}
		}
		return nil
	}
	switch figure {
	case "3":
		return printPanels(repro.Figure3(ctx, opts))
	case "4":
		return printPanels(repro.Figure4(ctx, opts))
	case "5":
		return printPanels(repro.Figure5(ctx, opts))
	case "6":
		rows, err := repro.Figure6(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatFig6(rows))
		return nil
	case "summary":
		rows, err := repro.Summary(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatSummary(rows))
		return nil
	case "clusters":
		for _, n := range []int{2, 4, 8} {
			rows, err := repro.ClusterComparison(ctx, opts, n)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, repro.FormatClusterRows(rows, n))
		}
		return nil
	case "consistency":
		rows, err := repro.ConsistencyComparison(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatConsistencyRows(rows))
		return nil
	case "availability":
		rows, err := repro.AvailabilityComparison(ctx, opts, []int{0, 2, 5, 10}, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatAvailabilityRows(rows))
		return nil
	case "redirection":
		rows, err := repro.RedirectionComparison(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatRedirectRows(rows))
		return nil
	case "kmedian":
		rows, err := repro.KMedianQuality(ctx, opts, []int{1, 2, 3})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatKMedianRows(rows))
		return nil
	case "model":
		rows, err := repro.ModelComparison(ctx, opts, []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatModelCompareRows(rows))
		policy, err := repro.ModelPolicyComparison(ctx, opts, []float64{0.02, 0.05, 0.1, 0.2})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatPolicyModelRows(policy))
		robust, err := repro.ModelRobustness(ctx, opts, []float64{0, 0.2, 0.4, 0.6})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatRobustnessRows(robust))
		return nil
	case "updates":
		rows, err := repro.UpdateSweep(ctx, opts, []float64{0, 0.1, 0.25, 0.5, 1.0})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatUpdateRows(rows))
		return nil
	case "seeds":
		rows, err := repro.SummaryOverSeeds(ctx, opts, []uint64{1, 2, 3, 4, 5})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatGainStats(rows))
		return nil
	case "heterogeneity":
		rows, err := repro.HeterogeneityComparison(ctx, opts, []float64{0, 0.4, 0.8, 1.2})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatHeterogeneityRows(rows))
		return nil
	case "drift":
		cfg := repro.DefaultDriftConfig()
		rows, err := repro.DriftComparison(ctx, opts, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatDriftRows(rows, cfg))
		return nil
	case "dynamic":
		rows, err := repro.DynamicComparison(ctx, opts, repro.DefaultDynamicCatalogOptions())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatDynamicRows(rows))
		return nil
	case "ablations":
		policy, err := repro.CachePolicyAblation(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatPolicyRows(policy))
		theta, err := repro.ThetaSweep(ctx, opts, []float64{0.6, 0.8, 1.0, 1.2, 1.4})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatThetaRows(theta))
		pl, err := repro.PlacementAblation(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatPlacementRows(pl))
		return nil
	case "churn":
		rows, err := repro.ChurnComparison(ctx, opts, repro.DefaultChurn())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatChurnRows(rows))
		return nil
	case "scale":
		factors := []int{1, 2, 4, 10}
		if quickRun {
			factors = []int{1, 2}
		}
		rows, err := repro.ScaleComparison(ctx, opts, factors)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, repro.FormatScaleRows(rows))
		return nil
	case "all":
		for _, f := range []string{"3", "4", "5", "6", "summary", "ablations", "clusters", "consistency", "availability", "churn", "drift", "dynamic", "redirection", "kmedian", "model", "updates", "heterogeneity"} {
			if err := run(ctx, w, f, opts); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown -figure %q (want 3, 4, 5, 6, summary, ablations, clusters, consistency, availability, churn, drift, dynamic, redirection, kmedian, model, updates, heterogeneity, seeds, scale or all)", figure)
	}
}
