package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp is the context a ledger was measured in. Two ledgers compare
// only when everything but the commit and the seed agrees.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Runs       int    `json:"runs"`
	Seconds    int    `json:"seconds"`
	Workers    int    `json:"workers"`
	Link       string `json:"link"`
	Smoke      bool   `json:"smoke,omitempty"`
}

// ledgerMetric is one metric of one workload over the ledger's runs.
type ledgerMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

// ledgerWorkload is one workload's row.
type ledgerWorkload struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Speedometer holds the readings (ms) the ledger's own process took on
	// the idle machine before each of the workload's runs: the host's mood
	// while the row was measured.
	Speedometer ledgerMetric            `json:"speedometer"`
	EndToEnd    map[string]ledgerMetric `json:"end_to_end"`
	PerLayer    map[string]ledgerMetric `json:"per_layer"`
}

// ledger is the one result file: every workload, every metric, stamped.
type ledger struct {
	Context stamp `json:"context"`
	// Claim is what the change under test says it improves; the
	// benchmark itself claims nothing.
	Claim     *string                   `json:"claim"`
	Workloads map[string]ledgerWorkload `json:"workloads"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one workload in a fresh process of this executable and
// parses the result object off the last line of its output.
func runChild(exe, workload string, seed uint64, seconds, trace int, smoke bool, outDir string) (report, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-outdir", outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s: last output line is not a result object: %w", workload, err)
	}
	return rep, nil
}

// runLedger runs every workload runs times untraced and once traced,
// prints the table and writes <outDir>/ledger.json.
func runLedger(seed uint64, seconds, runs int, smoke bool, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	led := ledger{
		Context: stamp{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(), Seed: seed, Runs: runs, Seconds: seconds,
			Workers: loadWorkers(), Link: "loopback", Smoke: smoke,
		},
		Workloads: map[string]ledgerWorkload{},
	}
	fmt.Printf("bench: %d workloads x %d run(s) of %ds, seed %d, %d generator workers, link loopback, %d CPUs, %s\n",
		len(workloads), runs, seconds, seed, led.Context.Workers, led.Context.NumCPU, led.Context.GoVersion)
	speed := newSpeedometer()
	for _, w := range workloads {
		row := ledgerWorkload{Speedometer: ledgerMetric{Unit: "ms"}, EndToEnd: map[string]ledgerMetric{}, PerLayer: map[string]ledgerMetric{}}
		// run is one child run, untraced (trace 0) or traced (trace 1).
		run := func(seed uint64, trace int, into map[string]ledgerMetric) error {
			speed.read()
			row.Speedometer.Values = append(row.Speedometer.Values, speed.take())
			row.Speedometer.Median = median(row.Speedometer.Values)
			rep, err := runChild(exe, w.Name, seed, seconds, trace, smoke, outDir)
			if err != nil {
				return err
			}
			row.Attempted += rep.Attempted
			row.Failed += rep.Failed
			for name, m := range rep.Metrics {
				lm := into[name]
				lm.Unit = m.Unit
				lm.Values = append(lm.Values, m.Value)
				lm.Median = median(lm.Values)
				into[name] = lm
			}
			return nil
		}
		var err error
		for r := 0; r < runs && err == nil; r++ {
			err = run(seed+uint64(r), 0, row.EndToEnd)
		}
		if err == nil {
			err = run(seed, 1, row.PerLayer)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		led.Workloads[w.Name] = row
		printRow(os.Stdout, w.Name, row)
		if row.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.Name, row.Failed, row.Attempted)
			return 1
		}
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(outDir, "ledger.json")
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("ledger written to %s\n", path)
	return 0
}

// spread is the distance between the first and third quartile of vs as a
// share of their median, with Python's statistics.quantiles(n=4)
// (exclusive method) quartiles; 0 below two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

func printRow(w io.Writer, name string, row ledgerWorkload) {
	fmt.Fprintf(w, "\n%s: %d operations attempted, %d failed, speedometer %.3f ms\n", name, row.Attempted, row.Failed, row.Speedometer.Median)
	for _, d := range endToEnd {
		m := row.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s bound %4.1f%%", d.Name, m.Median, m.Unit, 100*d.Bound)
		if len(m.Values) > 1 {
			fmt.Fprintf(w, "  spread %5.2f%% over %d runs", 100*spread(m.Values), len(m.Values))
		}
		if !d.nativeOn(name) {
			fmt.Fprint(w, "  (reference row)")
		}
		fmt.Fprintln(w)
	}
	for _, d := range perLayer {
		m := row.PerLayer[d.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, m.Median, m.Unit)
	}
}

func readLedger(path string) (ledger, error) {
	var led ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// speedometerTolerance is how far apart two rows' speedometer readings
// may be, as a share of the first, before the rows are not compared: the
// end-to-end values are reported at the reference reading, but the
// further the host was from it, the rougher that conversion.
const speedometerTolerance = 0.25

// compareLedgers prints, per workload and end-to-end metric the workload
// is about, both medians, the change and the bound. It returns 1 when B is
// worse than A past a bound, 0 otherwise. A row is unresolved, never
// regressed, when the ledgers were measured in different contexts, when
// the host's speedometer read differently while the two rows were
// measured, when a side has fewer than three runs, or when either side's
// run-to-run spread is wider than the bound.
func compareLedgers(w io.Writer, pathA, pathB string) int {
	a, err := readLedger(pathA)
	if err == nil {
		var b ledger
		if b, err = readLedger(pathB); err == nil {
			return compare(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compare(w io.Writer, a, b ledger) int {
	ca, cb := a.Context, b.Context
	ca.GitCommit, cb.GitCommit, ca.Seed, cb.Seed, ca.Runs, cb.Runs = "", "", 0, 0, 0, 0
	sameContext := ca == cb
	if !sameContext {
		fmt.Fprintf(w, "warning: the ledgers were measured in different contexts; every row is unresolved\n  A: %+v\n  B: %+v\n", a.Context, b.Context)
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		rowA, okA := a.Workloads[wl.Name]
		rowB, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-14s missing from a ledger: unresolved\n", wl.Name)
			continue
		}
		sa, sb := rowA.Speedometer.Median, rowB.Speedometer.Median
		sameHost := sa > 0 && sb > 0 && math.Abs(sb-sa)/sa <= speedometerTolerance
		if sameContext && !sameHost {
			fmt.Fprintf(w, "%-14s speedometer read %.3f ms under A, %.3f ms under B: the host differed, every row is unresolved\n", wl.Name, sa, sb)
		}
		for _, d := range endToEnd {
			if !d.nativeOn(wl.Name) {
				continue
			}
			ma, mb := rowA.EndToEnd[d.Name], rowB.EndToEnd[d.Name]
			// worse is the share of A's median by which B is worse.
			worse := (mb.Median - ma.Median) / ma.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case !sameContext || !sameHost || len(ma.Values) < 3 || len(mb.Values) < 3:
				// Fewer than three runs say nothing about the spread.
				verdict = "unresolved"
			case spread(ma.Values) > d.Bound || spread(mb.Values) > d.Bound:
				// Run-to-run spread wider than the bound: neither
				// "unchanged" nor "regressed" can be said.
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wl.Name, d.Name, ma.Median, mb.Median, 100*(mb.Median-ma.Median)/ma.Median, 100*d.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
