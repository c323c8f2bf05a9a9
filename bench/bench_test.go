package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at smoke size, traced (a
// traced run measures everything an untraced one does, and prints the
// per-layer list) and one of them untraced too, and checks that every
// metric BENCHMARK.json names is present, finite and carries its unit, and
// that no operation failed. No timing thresholds: the sizes are too small
// to mean anything.
func TestSmokeAllWorkloads(t *testing.T) {
	smoke := func(t *testing.T, w workloadDef, layers bool) report {
		rep, err := runWorkload(w.smoke(), options{Seed: 1, Layers: layers, Smoke: true, OutDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
		}
		defs := endToEnd
		if layers {
			defs = perLayer
		}
		if len(rep.Metrics) != len(defs) {
			t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
		}
		for _, d := range defs {
			// A per-layer metric is printed as measured, an end-to-end one at
			// the speedometer's reference reading.
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || (layers && m.Value != rep.measured[d.Name]) || (!layers && !(m.Value > 0)) {
				t.Errorf("metric %s reported as %+v (reported: %v), measured %v %s", d.Name, m, ok, rep.measured[d.Name], d.Unit)
			}
		}
		for _, d := range endToEnd {
			if v, ok := rep.measured[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("end-to-end metric %s = %v (measured: %v), want a positive number", d.Name, v, ok)
			}
		}
		return rep
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing is timed in earnest
			rep := smoke(t, w, true)
			for _, d := range perLayer {
				if v, ok := rep.measured[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (measured: %v)", d.Name, v, ok)
				}
			}
		})
	}
	t.Run("edge_churn/untraced", func(t *testing.T) {
		t.Parallel()
		smoke(t, workloads[2], false)
	})
}

// TestRotationAndEventsFollowRequestIndex checks what makes the rounds of
// a churn workload identical: the request at index k of the round's
// sequence is sent with its edge and site rotated by k/RotateEvery, and
// AtIndex sees every index exactly once, whatever the workers' timing.
func TestRotationAndEventsFollowRequestIndex(t *testing.T) {
	const first, n, every, sites = 20, 90, 30, 4
	var mu sync.Mutex
	paths := map[string]int{}
	handler := func(edge int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths[strconv.Itoa(edge)+r.URL.Path]++
			mu.Unlock()
			w.Header().Set("X-Cdn-Source", "replica")
			w.Header().Set("Etag", `"`+r.URL.Path+`@0"`)
			w.Write([]byte("abcd"))
		}
	}
	tgt := target{
		Sites: sites, Sources: []string{"replica"},
		Size:   func(site, object int) int64 { return 4 },
		Verify: func(b []byte, site, object, version int) bool { return string(b) == "abcd" },
	}
	for edge := 0; edge < 2; edge++ {
		srv := httptest.NewServer(handler(edge))
		defer srv.Close()
		tgt.EdgeURLs = append(tgt.EdgeURLs, srv.URL)
	}
	reqs := make([]request, n)
	want := map[string]int{}
	for i := range reqs {
		reqs[i] = request{Edge: i % 2, Site: i % sites, Object: i}
		rot := (first + i) / every
		want[strconv.Itoa((i%2+rot)%2)+"/obj/"+strconv.Itoa((i%sites+rot)%sites)+"/"+strconv.Itoa(i)]++
	}
	seen := make([]atomic.Int32, n)
	gen := newGenerator(tgt, 2)
	defer gen.close()
	ph := gen.run(context.Background(), reqs, phaseOpts{FullVerify: true, First: first, RotateEvery: every, AtIndex: func(k int) { seen[k-first].Add(1) }})
	if ph.Failed != 0 {
		t.Fatalf("%d requests failed: %s", ph.Failed, ph.FirstErr)
	}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("requests arrived as %v, want %v", paths, want)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("AtIndex saw index %d %d times, want once", first+i, got)
		}
	}
}

// stallServer answers every object request correctly, but holds the
// stallAt-th request for stall before answering.
func stallServer(t *testing.T, stallAt int64, stall time.Duration) target {
	var seen atomic.Int64
	body := []byte("0123456789")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Header().Set("X-Cdn-Source", "replica")
		w.Header().Set("Etag", `"`+r.URL.Path+`@0"`)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return target{
		EdgeURLs: []string{srv.URL},
		Sites:    1,
		Size:     func(site, object int) int64 { return int64(len(body)) },
		Verify:   func(b []byte, site, object, version int) bool { return bytes.Equal(b, body) && version == 0 },
		Sources:  []string{"replica"},
	}
}

// TestOpenLoopChargesStallToQueuedRequests drives a deliberately stalled
// server. The open loop's schedule is fixed beforehand, latency runs
// from the due time, so every request that came due during the stall is
// slow, the generator's lateness says how far behind it ran, and it is
// back on schedule by the end. The closed loop on the same server sees
// one slow request: the coordinated omission the open loop exists to
// avoid.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		n     = 120
		rate  = 200.0 // one request per 5 ms
		stall = 150 * time.Millisecond
		slow  = 50 * time.Millisecond
	)
	due := poissonSchedule(n, rate, 7)
	if again := poissonSchedule(n, rate, 7); !reflect.DeepEqual(due, again) {
		t.Fatal("the schedule is not a function of (n, rate, seed) alone")
	}
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Site: 0, Object: 1 + i%5}
	}
	countSlow := func(ph phase, field func(sample) int64) (slowCount int) {
		for _, s := range ph.Samples {
			if time.Duration(field(s)) > slow {
				slowCount++
			}
		}
		return slowCount
	}
	latency := func(s sample) int64 { return s.LatNs }
	lateness := func(s sample) int64 { return s.LateNs }

	tgt := stallServer(t, 10, stall)
	gen := newGenerator(tgt, 1)
	defer gen.close()
	open := gen.run(context.Background(), reqs, phaseOpts{Due: due, FullVerify: true})
	if open.Failed != 0 {
		t.Fatalf("%d requests failed: %s", open.Failed, open.FirstErr)
	}
	// About stall × rate = 30 requests come due while the server sleeps;
	// the ones due in its last 50 ms wait less than the slow threshold.
	if got := countSlow(open, latency); got < 12 {
		t.Errorf("open loop: %d requests slower than %v from their due time, want the whole backlog (>= 12)", got, slow)
	}
	if got := countSlow(open, lateness); got < 12 {
		t.Errorf("open loop: %d requests sent more than %v late, want the backlog's lag reported (>= 12)", got, slow)
	}
	for _, s := range open.Samples[n-10:] {
		if time.Duration(s.LateNs) > 20*time.Millisecond {
			t.Errorf("open loop: a request of the last ten was sent %v late: the schedule shifted with the stall", time.Duration(s.LateNs))
		}
	}
	if min := due[n-1]; open.Wall < min {
		t.Errorf("open loop finished in %v, before its last due time %v", open.Wall, min)
	}

	tgt = stallServer(t, 10, stall)
	gen2 := newGenerator(tgt, 1)
	defer gen2.close()
	closed := gen2.run(context.Background(), reqs, phaseOpts{FullVerify: true})
	if closed.Failed != 0 {
		t.Fatalf("%d requests failed: %s", closed.Failed, closed.FirstErr)
	}
	if got := countSlow(closed, latency); got != 1 {
		t.Errorf("closed loop: %d slow requests, want exactly the stalled one", got)
	}
}

// TestGeneratorRejectsWrongAnswers checks each response check on its
// own: a wrong answer is a failed operation, not a latency sample.
func TestGeneratorRejectsWrongAnswers(t *testing.T) {
	cases := map[string]func(w http.ResponseWriter, r *http.Request){
		"status": func(w http.ResponseWriter, r *http.Request) { http.Error(w, "no", http.StatusBadGateway) },
		"source": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Cdn-Source", "elsewhere")
			w.Header().Set("Etag", `"`+r.URL.Path+`@0"`)
			w.Write([]byte("abcd"))
		},
		"length": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Cdn-Source", "replica")
			w.Header().Set("Etag", `"`+r.URL.Path+`@0"`)
			w.Write([]byte("abc"))
		},
		"etag": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Cdn-Source", "replica")
			w.Header().Set("Etag", `"/obj/9/9@0"`)
			w.Write([]byte("abcd"))
		},
		"body": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Cdn-Source", "replica")
			w.Header().Set("Etag", `"`+r.URL.Path+`@0"`)
			w.Write([]byte("abcX"))
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(handler))
			defer srv.Close()
			gen := newGenerator(target{
				EdgeURLs: []string{srv.URL}, Sites: 1,
				Size:    func(site, object int) int64 { return 4 },
				Verify:  func(b []byte, site, object, version int) bool { return string(b) == "abcd" },
				Sources: []string{"replica"},
			}, 1)
			defer gen.close()
			ph := gen.run(context.Background(), []request{{Site: 0, Object: 1}}, phaseOpts{FullVerify: true})
			if ph.Failed != 1 || ph.Samples[0].Src != -1 {
				t.Fatalf("failed=%d src=%d (%s), want the request rejected", ph.Failed, ph.Samples[0].Src, ph.FirstErr)
			}
		})
	}
}

func TestSelfTimeAndCriticalPath(t *testing.T) {
	// client 0..100 → serve 10..70 → upstream 20..50 and 55..60.
	root := &traceNode{Kind: spanClient, StartUs: 0, DurUs: 100, Children: []*traceNode{
		{Kind: "serve", StartUs: 10, DurUs: 60, Children: []*traceNode{
			{Kind: "upstream", StartUs: 20, DurUs: 30},
			{Kind: "upstream", StartUs: 55, DurUs: 5},
		}},
	}}
	b := reduceTraces([]*traceNode{root})
	want := map[string]float64{spanClient: 40, "serve": 25, "upstream": 30}
	if b.Requests != 1 || !reflect.DeepEqual(b.SelfUs, want) {
		t.Errorf("self times %v over %d requests, want %v over 1", b.SelfUs, b.Requests, want)
	}
	if math.Abs(b.Coverage-0.6) > 1e-12 {
		t.Errorf("coverage %v, want 0.6", b.Coverage)
	}
}

// TestPiecesFollowCompletionOrder checks the closed loop's timed pieces:
// cut on the completion timeline, whatever order the workers finished in,
// and adding up to the last completion.
func TestPiecesFollowCompletionOrder(t *testing.T) {
	ph := phase{Samples: []sample{{DoneNs: 3e6}, {DoneNs: 1e6}, {DoneNs: 2e6}, {DoneNs: 7e6}, {DoneNs: 4e6}}}
	if got, want := ph.pieceSeconds(2), []float64{0.002, 0.002}; !reflect.DeepEqual(got, want) {
		t.Errorf("pieces of two: %v, want %v (the fifth completion starts no full piece)", got, want)
	}
	if got := quietSum([][]float64{{4, 1, 3, 2}, {10, 30, 20}}); got != 11 {
		t.Errorf("quiet sum %v, want 1 + 10: the lower quartile of each piece", got)
	}
	if got := quietQuartile([]float64{8, 7, 6, 5, 4, 3, 2, 1}); got != 2 {
		t.Errorf("quiet quartile of 1..8 = %v, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(vs))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values %v %v, want 0.75 2.25", q1, q3)
	}
}

// testLedger is a ledger in which every row reads 1 but edge_hot's
// goodput_rps (a native row) and offline_sim's (a reference row).
func testLedger(goodput ...float64) ledger {
	led := ledger{Context: stamp{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seconds: 15, Workers: 2, Link: "loopback"},
		Workloads: map[string]ledgerWorkload{}}
	for _, w := range workloads {
		row := ledgerWorkload{Speedometer: ledgerMetric{Unit: "ms", Median: 1, Values: []float64{1}}, EndToEnd: map[string]ledgerMetric{}}
		for _, d := range endToEnd {
			row.EndToEnd[d.Name] = ledgerMetric{Unit: d.Unit, Median: 1, Values: []float64{1, 1, 1}}
		}
		led.Workloads[w.Name] = row
	}
	led.Workloads["edge_hot"].EndToEnd["goodput_rps"] = ledgerMetric{Unit: "1/s", Median: median(goodput), Values: goodput}
	return led
}

func TestCompare(t *testing.T) {
	base := testLedger(1000, 1010, 990)
	check := func(name string, b ledger, wantCode int, want, unwanted []string) {
		t.Helper()
		var out bytes.Buffer
		if code := compare(&out, base, b); code != wantCode {
			t.Errorf("%s: exit %d, want %d\n%s", name, code, wantCode, out.String())
		}
		for _, s := range want {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: no %q in\n%s", name, s, out.String())
			}
		}
		for _, s := range unwanted {
			if strings.Contains(out.String(), s) {
				t.Errorf("%s: unexpected %q in\n%s", name, s, out.String())
			}
		}
	}

	same := testLedger(1005, 995, 1000)
	same.Context.GitCommit, same.Context.Seed = "abc", 2
	check("equal ledgers", same, 0, nil, []string{"REGRESSED", "unresolved"})
	check("goodput down 30%", testLedger(700, 710, 690), 1, []string{"REGRESSED"}, nil)
	check("goodput up 40%", testLedger(1400, 1410, 1390), 0, nil, []string{"REGRESSED"})
	// A spread wider than the bound is unresolved even when the median is
	// past the bound too.
	check("spread wider than the bound", testLedger(300, 700, 1100), 0, []string{"unresolved"}, []string{"REGRESSED"})

	other := testLedger(700, 710, 690)
	other.Context.NumCPU = 8
	check("different contexts", other, 0, []string{"different contexts", "unresolved"}, []string{"REGRESSED"})

	busy := testLedger(700, 710, 690)
	row := busy.Workloads["edge_hot"]
	row.Speedometer = ledgerMetric{Unit: "ms", Median: 1.4, Values: []float64{1.4}}
	busy.Workloads["edge_hot"] = row
	check("a busier host", busy, 0, []string{"the host differed", "unresolved"}, []string{"REGRESSED"})

	check("a single run", testLedger(700), 0, []string{"unresolved"}, []string{"REGRESSED"})

	// offline_sim is not about goodput_rps: its reference row does not gate.
	ref := testLedger(1000, 1010, 990)
	ref.Workloads["offline_sim"].EndToEnd["goodput_rps"] = ledgerMetric{Unit: "1/s", Median: 0.5, Values: []float64{0.5, 0.5, 0.5}}
	check("a reference row halves", ref, 0, nil, []string{"REGRESSED", "unresolved"})
}

// TestSharesFitCalibration refits the memory shares from the runs in
// calibration.json, the way README.md describes — per metric, the share in
// steps of 0.05 at which the at-reference values of a workload's runs spread
// least, averaged over the workloads the metric is native on, and again
// over those that report it from a reference section — and checks that the
// shares frozen in metrics.go and workloads.go are the fitted ones to
// within the fit's own resolution on twenty runs.
func TestSharesFitCalibration(t *testing.T) {
	data, err := os.ReadFile("calibration.json")
	if err != nil {
		t.Fatal(err)
	}
	var cal struct {
		ReferenceMs float64 `json:"reference_ms"`
		Workloads   map[string]map[string]struct {
			ReadingMs []float64 `json:"reading_ms"`
			Measured  []float64
		}
	}
	if err := json.Unmarshal(data, &cal); err != nil {
		t.Fatal(err)
	}
	if cal.ReferenceMs != speedometerRef {
		t.Fatalf("calibrated at a reference of %v ms, the benchmark reports at %v ms", cal.ReferenceMs, speedometerRef)
	}
	const tolerance = 0.15
	for _, d := range endToEnd {
		if d.Name == "place_cost_rel" {
			continue // a ratio of two predicted costs: no time in it
		}
		for _, native := range []bool{true, false} {
			// frozen shares by workload; one fit per distinct share
			groups := map[float64][]string{}
			for _, w := range workloads {
				if d.nativeOn(w.Name) == native {
					share := d.Memory
					if own, ok := w.Memory[d.Name]; ok {
						share = own
					}
					groups[share] = append(groups[share], w.Name)
				}
			}
			for frozen, names := range groups {
				best, bestSpread := 0.0, math.Inf(1)
				for step := 0; step <= 24; step++ {
					share, total := float64(step)/20, 0.0
					for _, name := range names {
						runs := cal.Workloads[name][d.Name]
						at := make([]float64, len(runs.Measured))
						for i, v := range runs.Measured {
							at[i] = d.atReference(v, share, runs.ReadingMs[i])
						}
						total += spread(at)
					}
					if total < bestSpread {
						best, bestSpread = share, total
					}
				}
				if math.Abs(best-frozen) > tolerance {
					t.Errorf("%s on %v (native: %v): share %.2f frozen, %.2f fits calibration.json best", d.Name, names, native, frozen, best)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the root BENCHMARK.json and the metric
// and workload tables in this directory from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no ../BENCHMARK.json in this checkout")
	}
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the benchmark measures for %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: its why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %q (%s), the benchmark's is %q (%s)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		list string
		got  []metric
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.list, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if want := (metric{d.Name, d.Unit, d.Better, d.Bound}); c.got[i] != want {
				t.Errorf("%s[%d] is %+v, the benchmark's is %+v", c.list, i, c.got[i], want)
			}
		}
	}
}
