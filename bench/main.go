// Command bench is the repository's one performance ledger. It drives
// the system through its public entry points — scenario.Build,
// placement.Hybrid/Incremental, sim.Run/RunParallel/RunSource,
// clusterd.StartControl/StartOrigin/StartEdge, then plain HTTP — and
// prints the end-to-end and per-layer metrics BENCHMARK.json names.
//
//	bench                                  every workload, each in a fresh child process
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                       one workload; the last line of stdout is the result object
//	bench -compare A.json B.json           compare two ledgers against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	Seed    uint64
	Seconds int
	// Layers selects the traced run: per-layer metrics instead of
	// end-to-end ones.
	Layers bool
	// Smoke sets up once and measures the fewest rounds.
	Smoke  bool
	OutDir string
	Log    io.Writer
}

// report is the result object of one run: the contract's last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// measured holds every value the run measured, by name; Metrics is the
	// list its mode prints.
	measured results
}

// loadWorkers is the generator's worker and keep-alive connection count,
// and the simulator's parallel worker count: min(nproc, 2).
func loadWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

const (
	// runSeconds is the measuring time of one run, as BENCHMARK.json
	// states it.
	runSeconds = 15
	// nativeShare is the share of the measuring time the workload's native
	// section gets; the two reference sections split the rest.
	nativeShare = 0.7
	setupReps   = 3
	// minRounds is the fewest rounds a section measures, however short
	// its time is: a quartile wants four values.
	minRounds = 4
)

// section is one family's part of a run: a live deployment, placement
// solves or simulator runs. A traced run hands round and layers a span
// log.
type section interface {
	setup() error
	// round does the section's fixed work once.
	round(spans *spanLog) error
	// finish reduces the rounds to the family's end-to-end metrics.
	finish(out results) error
	// layers adds the family's per-layer metrics.
	layers(spans *spanLog, out results) error
	teardown()
	ops() (attempted, failed int, firstErr string)
}

// runWorkload sets the workload's native section up setupReps times and
// measures it round after round — the whole of its fixed work in every
// round — for nativeShare of opt.Seconds; then it sets up and measures the
// two reference sections, one after the other, for the rest. It returns
// the named metrics: per-layer ones as measured, end-to-end ones at the
// speedometer's reference reading. An error means an output check failed:
// no number is reported.
func runWorkload(w workloadDef, opt options) (report, error) {
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}
	speed := newSpeedometer()
	live := &liveRun{spec: w.Live, seed: opt.Seed, speed: speed}
	sections := map[string]section{
		"live":  live,
		"place": &placeRun{spec: w.Place, seed: opt.Seed, speed: speed},
		"sim":   &simRun{spec: w.Sim, seed: opt.Seed, speed: speed},
	}
	order := []string{w.Native}
	for _, name := range []string{"live", "place", "sim"} {
		if name != w.Native {
			order = append(order, name)
		}
	}
	var spans *spanLog
	if opt.Layers {
		spans = &spanLog{}
	}
	// out holds every value as measured; readings the speedometer's median
	// reading while each family's section was measured, and under "" while
	// the native section was set up.
	out, readings := results{}, map[string]float64{}
	rep := report{Correct: true, Metrics: map[string]metricValue{}, measured: out}
	// measure sets sec up reps times, runs its rounds for budget and reduces
	// them into out; it returns the median set-up time and the speedometer's
	// reading over the set-ups.
	measure := func(sec section, reps int, budget time.Duration) (setupS, setupReading float64, rounds int, err error) {
		defer sec.teardown()
		// Set-up: everything the section needs before its first timed
		// operation — scenario built, initial placement solved, the
		// deployment booted, registered and warmed up, request lists drawn.
		var setups []float64
		for i := 0; i < reps; i++ {
			sec.teardown()
			runtime.GC()
			speed.read()
			start := time.Now()
			if err := sec.setup(); err != nil {
				return 0, 0, 0, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		speed.read()
		setupReading = speed.take()
		for start := time.Now(); rounds < minRounds || time.Since(start) < budget; rounds++ {
			if err := sec.round(spans); err != nil {
				return 0, 0, 0, err
			}
		}
		if err := sec.finish(out); err != nil {
			return 0, 0, 0, err
		}
		if opt.Layers {
			err = sec.layers(spans, out)
		}
		return median(setups), setupReading, rounds, err
	}
	for k, name := range order {
		// The native section's set-up is done setupReps times over and
		// reported; a smoke run sets up once and measures minRounds rounds.
		reps, share := 1, (1-nativeShare)/float64(len(order)-1)
		if k == 0 {
			reps, share = setupReps, nativeShare
		}
		budget := time.Duration(share * float64(opt.Seconds) * float64(time.Second))
		if opt.Smoke {
			reps, budget = 1, 0
		}
		setupS, setupReading, rounds, err := measure(sections[name], reps, budget)
		if err != nil {
			return report{}, fmt.Errorf("%s section: %w", name, err)
		}
		readings[name] = speed.take()
		if k == 0 {
			out["setup_s"], readings[""] = setupS, setupReading
			out["rt.speedometer_ms"] = readings[name]
		}
		attempted, failed, firstErr := sections[name].ops()
		rep.Attempted += attempted
		rep.Failed += failed
		logf("%s section: set-up %.3fs, %d rounds, %d operations (%d failed), speedometer %.3f ms", name, setupS, rounds, attempted, failed, readings[name])
		if failed > 0 {
			rep.Correct = false
			logf("first failed operation: %s", firstErr)
		}
	}
	if opt.Layers {
		own, err := encodeSpans(spans.take())
		if err != nil {
			return report{}, err
		}
		path := filepath.Join(opt.OutDir, w.Name+".trace.jsonl")
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return report{}, err
		}
		if err := os.WriteFile(path, append(live.trace, own...), 0o644); err != nil {
			return report{}, err
		}
		logf("trace written to %s", path)
	}

	defs := endToEnd
	if opt.Layers {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out[d.Name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s = %v is not finite", d.Name, v)
		}
		if !opt.Layers {
			// End-to-end metrics are reported at the speedometer's reference
			// reading; per-layer metrics as measured, next to the reading.
			share := d.Memory
			if own, ok := w.Memory[d.Name]; ok {
				share = own
			}
			logf("  %-16s %14.6g %-6s as measured at speedometer %.3f ms", d.Name, v, d.Unit, readings[d.Family])
			v = d.atReference(v, share, readings[d.Family])
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

// printMetrics writes the run's metrics as a table, in ledger order.
func printMetrics(w io.Writer, rep report) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := rep.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.6g %-6s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
			}
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "workload seed: same seed, same requests and demand drift")
		seconds  = flag.Int("seconds", runSeconds, "measuring time per run")
		trace    = flag.Int("trace", 0, "1: the traced run, printing per-layer metrics; 0: end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "shrink every section to its small size, one set-up, four rounds (no meaningful timing)")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files and the ledger")
		runs     = flag.Int("runs", 1, "ledger mode: runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two ledger files given as arguments")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		if *smoke {
			w = w.smoke()
		}
		fmt.Printf("workload %s seed %d: %d generator workers and keep-alive connections per edge, link loopback, GOMAXPROCS %d\n",
			w.Name, *seed, loadWorkers(), runtime.GOMAXPROCS(0))
		rep, err := runWorkload(w, options{Seed: *seed, Seconds: *seconds, Layers: *trace == 1, Smoke: *smoke, OutDir: *outDir, Log: os.Stdout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		printMetrics(os.Stdout, rep)
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	default:
		os.Exit(runLedger(*seed, *seconds, *runs, *smoke, *outDir))
	}
}
