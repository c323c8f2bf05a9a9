package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// liveSpec sizes a live section: a clusterd deployment driven over HTTP.
// Each round of a run replays one fixed closed-loop request list and one
// fixed open-loop list on its fixed schedule; the sizes are fixed, the
// number of rounds follows the clock.
type liveSpec struct {
	Cluster  clusterSpec
	Warmup   int     // requests before the first timed one, every body verified
	Closed   int     // requests of the closed-loop list, a multiple of pieceReqs
	Open     int     // requests of the open-loop list
	OpenRate float64 // open-loop arrival rate in requests/s, frozen (README.md)
	// EventEvery is the cadence of the control events, in requests of a
	// round's sequence (the closed-loop list, then the open-loop list):
	// request k*EventEvery starts event k, and Reconcile runs half an
	// interval later, when the edges' demand reports of the requests since
	// have reached the estimator.
	EventEvery int
	// Mix, when non-nil, checks the served-from shares against the
	// workload's design.
	Mix func(share map[string]float64) error
}

const (
	// pieceReqs is the closed loop's timed piece: a millisecond or two of
	// the deployment's work.
	pieceReqs = 32
	// modifyShare is the share of the catalog a churn event modifies at the
	// origin (objects drawn like requests, so popular ones more often).
	modifyShare = 0.01
	// eventSeeds and tracedSeeds offset the seeds of the event streams and
	// of the traced deployment's warm-up from the lists'.
	eventSeeds  = 500_000
	tracedSeeds = 1_000_000
	floorProbes = 2000 // requests of the ping and origin-direct probes
)

// reconcile is one control round as the benchmark saw it.
type reconcile struct {
	At      int // index in the round's request sequence that called for it
	Ms      float64
	Applied bool // a new placement was pushed to the edges
}

// liveRun is one live section in progress.
type liveRun struct {
	spec     liveSpec
	seed     uint64
	speed    *speedometer
	seedBase uint64 // offsets this deployment's request streams from another's
	c        *cluster
	gen      *generator
	nextSeed uint64 // request-stream seed of the next list

	closedList, openList []request
	openDue              []time.Duration
	// closed and open hold the timed phases, one per round. Every round is
	// the same requests in the same order (and on the same schedule) with
	// the same control events at the same request indices, so the rounds
	// differ only by what else the machine and the program were doing.
	closed, open []phase

	attempted, failed int
	firstErr          string

	reconciles []reconcile

	// Accounting over the timed rounds, for the per-layer metrics.
	stepCounters  clusterCounters
	stepWall      time.Duration
	cpuUs         float64
	mallocs, gcNs uint64

	// traced is the second deployment of a traced run, with the edges'
	// tracer on; its closed holds its repetitions of the closed-loop list
	// and trace the last repetition's JSONL: the benchmark's root spans,
	// then the program's spans.
	traced *liveRun
	trace  []byte
}

// setup boots the deployment, sends the warm-up through it and draws the
// run's request lists and schedule.
func (l *liveRun) setup() error {
	c, err := bootCluster(l.spec.Cluster)
	if err != nil {
		return err
	}
	l.c, l.gen, l.nextSeed = c, newGenerator(c.target(), loadWorkers()), 0
	l.count(l.gen.run(context.Background(), l.requests(l.spec.Warmup), phaseOpts{FullVerify: true}))
	l.closedList, l.openList = l.requests(l.spec.Closed), l.requests(l.spec.Open)
	l.openDue = poissonSchedule(l.spec.Open, l.spec.OpenRate, l.seed)
	return nil
}

func (l *liveRun) teardown() {
	if l.traced != nil {
		l.traced.teardown()
	}
	if l.c != nil {
		l.gen.close()
		l.c.shutdown()
		l.c, l.gen = nil, nil
	}
}

// requests draws the next n requests; every list has its own stream
// derived from the run's seed.
func (l *liveRun) requests(n int) []request {
	l.nextSeed++
	return l.c.requests(l.seed*1_000_003+l.seedBase+l.nextSeed, n)
}

func (l *liveRun) count(ph phase) phase {
	l.attempted += len(ph.Samples)
	l.failed += ph.Failed
	if l.firstErr == "" {
		l.firstErr = ph.FirstErr
	}
	return ph
}

// timed runs one timed list, the stretch of the round's request sequence
// that starts at index first, with the workload's control events, which are
// tied to request indices, not to the clock: the worker about to send the
// sequence's request k*EventEvery starts event k, and the one about to send
// request k*EventEvery + EventEvery/2 has Reconcile called, as the control
// plane's own loop would. On a churn workload the requests of event k's
// interval are sent with edge and site rotated by k (phaseOpts.RotateEvery)
// and event k bumps the origin version of modifyShare of the catalog, so
// the reconcile sees drifted demand and, with hysteresis off, pushes a new
// placement under traffic. Every round therefore sends the same requests to
// the same edges in the same order with the same events at the same
// indices. The events run on their own goroutine while the workers keep
// sending; timed returns when the list is done and its last event has
// finished.
func (l *liveRun) timed(list []request, due []time.Duration, first int) (phase, error) {
	every := l.spec.EventEvery
	opt := phaseOpts{Due: due, First: first}
	if l.spec.Cluster.Churn {
		opt.RotateEvery = every
	}
	// One send per half interval, so no worker ever waits on the channel.
	events := make(chan int, 2*len(list)/every+2)
	opt.AtIndex = func(k int) {
		if k%(every/2) == 0 {
			events <- k
		}
	}
	done := make(chan error, 1)
	go func() {
		var first error
		for k := range events {
			if err := l.event(k); err != nil && first == nil {
				first = err
			}
		}
		done <- first
	}()
	ph := l.count(l.gen.run(context.Background(), list, opt))
	close(events)
	return ph, <-done
}

// event is the control event at index k of the round's request sequence.
func (l *liveRun) event(k int) error {
	if k%l.spec.EventEvery == 0 {
		if l.spec.Cluster.Churn {
			n := int(modifyShare*float64(l.c.catalogSize()) + 0.5)
			for _, r := range l.c.requests(l.seed*1_000_003+eventSeeds+uint64(k/l.spec.EventEvery), n) {
				l.c.modify(r.Site, r.Object)
			}
		}
		return nil
	}
	ms, applied, err := l.c.reconcile()
	if err != nil {
		return err
	}
	l.reconciles = append(l.reconciles, reconcile{k, ms, applied})
	return nil
}

// round is the live section's share of one round: the closed-loop list,
// then the open-loop list, with the control events of the sequence the two
// make. A collection is forced before each phase, so that the collector's
// cycles fall on the same stretch of a list in every round. A traced run (spans != nil) adds the same closed-loop list on the traced
// deployment, and process-wide CPU, allocation and GC accounting around
// the untraced phases (which stops the world twice).
func (l *liveRun) round(spans *spanLog) error {
	layers := spans != nil
	if layers && l.traced == nil {
		spec := l.spec
		spec.Cluster.Traced = true
		l.traced = &liveRun{spec: spec, seed: l.seed, seedBase: tracedSeeds}
		if err := l.traced.setup(); err != nil {
			return err
		}
		l.traced.gen.trace = &spanLog{}
	}
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	c0 := l.c.counters()
	if layers {
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	runtime.GC()
	l.speed.read()
	closed, err := l.timed(l.closedList, nil, 0)
	if err != nil {
		return err
	}
	runtime.GC()
	l.speed.read()
	open, err := l.timed(l.openList, l.openDue, len(l.closedList))
	if err != nil {
		return err
	}
	l.closed, l.open = append(l.closed, closed), append(l.open, open)
	l.stepWall += time.Since(start)
	l.stepCounters = l.stepCounters.plus(l.c.counters().minus(c0))
	if !layers {
		return nil
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	cpu := func(ru syscall.Rusage) float64 {
		return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
	}
	l.cpuUs += cpu(ru1) - cpu(ru0)
	l.mallocs += ms1.Mallocs - ms0.Mallocs
	l.gcNs += ms1.PauseTotalNs - ms0.PauseTotalNs

	// The traced repetition; only the last one's spans are kept.
	t := l.traced
	t.gen.trace.take()
	if _, err := t.c.programSpans(); err != nil {
		return err
	}
	runtime.GC()
	traced, err := t.timed(l.closedList, nil, 0)
	if err != nil {
		return err
	}
	t.closed = append(t.closed, traced)
	own, err := encodeSpans(t.gen.trace.take())
	if err != nil {
		return err
	}
	program, err := t.c.programSpans()
	l.trace = append(own, program...)
	return err
}

// ops returns the operations the section attempted and how many failed,
// the traced deployment's included.
func (l *liveRun) ops() (attempted, failed int, firstErr string) {
	attempted, failed, firstErr = l.attempted, l.failed, l.firstErr
	if l.traced != nil {
		attempted += l.traced.attempted
		failed += l.traced.failed
		if firstErr == "" {
			firstErr = l.traced.firstErr
		}
	}
	return attempted, failed, firstErr
}

// closedSeconds is the closed-loop list's time on the quiet side: the sum
// of every piece's quiet quartile over the rounds.
func closedSeconds(rounds []phase) float64 {
	var pieces [][]float64
	for _, ph := range rounds {
		pieces = appendPieces(pieces, ph.pieceSeconds(pieceReqs))
	}
	return quietSum(pieces)
}

// quietLatenciesMs returns, for every request of a list that was
// answered correctly at least once, the quiet quartile of its latencies
// over the rounds, in ascending order.
func quietLatenciesMs(rounds []phase) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := make([]float64, 0, len(rounds[0].Samples))
	reps := make([]float64, 0, len(rounds))
	for i := range rounds[0].Samples {
		reps = reps[:0]
		for _, ph := range rounds {
			if s := ph.Samples[i]; s.Src >= 0 {
				reps = append(reps, float64(s.LatNs)/1e6)
			}
		}
		if len(reps) > 0 {
			out = append(out, quietQuartile(reps))
		}
	}
	sort.Float64s(out)
	return out
}

// latenciesMs returns the latencies of the phase's verified responses.
func (ph phase) latenciesMs() []float64 {
	out := make([]float64, 0, len(ph.Samples))
	for _, s := range ph.Samples {
		if s.Src >= 0 {
			out = append(out, float64(s.LatNs)/1e6)
		}
	}
	return out
}

// reconcileMs reduces the section's control rounds to reconcile_ms, and
// counts those that pushed a placement. A churn section is about the rounds
// that pushed one: the reconcile at index k of the sequence answers the same
// drift in every round, so it is the same reconcile every time, and the
// metric is the mean over those indices of each one's quiet quartile. The
// other sections only ever see rounds that find nothing to do, and report
// their median: whether such a round repairs warm (0.05 ms) or re-solves
// cold (0.5 ms) depends on how noisy its window's estimate was, and a
// quartile would flip between the two from run to run.
func (l *liveRun) reconcileMs() (ms float64, applied int) {
	var all []float64
	byIndex := map[int][]float64{}
	for _, r := range l.reconciles {
		all = append(all, r.Ms)
		if r.Applied {
			applied++
			byIndex[r.At] = append(byIndex[r.At], r.Ms)
		}
	}
	if !l.spec.Cluster.Churn {
		return median(all), applied
	}
	for _, reps := range byIndex {
		ms += quietQuartile(reps) / float64(len(byIndex))
	}
	return ms, applied
}

// finish reduces the rounds to the end-to-end metrics and checks the
// request mix. Beside each quiet-side number it notes the same phases as
// they were measured, whole: the per-layer client.*_measured_* metrics.
func (l *liveRun) finish(out results) error {
	// Goodput: the share of the list answered correctly, over the list's
	// quiet time.
	ok := 1 - float64(l.failed)/float64(l.attempted)
	out["goodput_rps"] = ok * float64(len(l.closedList)) / closedSeconds(l.closed)
	// Latency from the due time: the median and the 99th percentile over
	// the list's requests, each at the quiet quartile of its repetitions.
	lat := quietLatenciesMs(l.open)
	out["lat_p50_ms"] = quantileSorted(lat, 0.50)
	out["client.lat_p99_quiet_ms"] = quantileSorted(lat, 0.99)

	// As measured: every round's verified responses over the closed-loop
	// list's wall time and the median latency of its open-loop list, at the
	// median over the rounds; the tail over every open-loop sample of every
	// round.
	goodput, p50 := make([]float64, len(l.closed)), make([]float64, len(l.open))
	var pooled []float64
	for i, ph := range l.closed {
		goodput[i] = float64(len(ph.Samples)-ph.Failed) / ph.Wall.Seconds()
	}
	for i, ph := range l.open {
		p50[i] = median(ph.latenciesMs())
		pooled = append(pooled, ph.latenciesMs()...)
	}
	sort.Float64s(pooled)
	out["client.goodput_measured_rps"] = median(goodput)
	out["client.lat_p50_measured_ms"] = median(p50)
	out["client.lat_p99_ms"] = quantileSorted(pooled, 0.99)
	out["client.lat_samples"] = float64(len(pooled))

	if len(l.reconciles) == 0 {
		return fmt.Errorf("no reconcile ran alongside the timed phases")
	}
	ms, applied := l.reconcileMs()
	if l.spec.Cluster.Churn && applied == 0 {
		return fmt.Errorf("churn workload: none of %d reconciles applied a plan", len(l.reconciles))
	}
	out["reconcile_ms"] = ms

	if l.spec.Mix != nil {
		share, _ := sourceMix(l.closed, l.gen.tgt.Sources)
		if err := l.spec.Mix(share); err != nil {
			return fmt.Errorf("request mix is not as designed: %w (shares %v)", err, share)
		}
	}
	return nil
}

// layers adds the per-layer metrics of the timed rounds, the floor probes
// and the traced repetitions.
func (l *liveRun) layers(_ *spanLog, out results) error {
	// The accounting spans the untraced deployment's timed phases.
	timed := float64(len(l.closed)*len(l.closedList) + len(l.open)*len(l.openList))
	out["rt.cpu_us_per_req"] = l.cpuUs / timed
	out["rt.allocs_per_req"] = float64(l.mallocs) / timed
	out["rt.gc_pause_ms"] = float64(l.gcNs) / 1e6
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	out["rt.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	var closedBytes, closedLatNs float64
	var closedOK int
	for _, ph := range l.closed {
		for _, s := range ph.Samples {
			if s.Src >= 0 {
				closedBytes += float64(s.Bytes)
				closedLatNs += float64(s.LatNs)
				closedOK++
			}
		}
	}
	out["edge.bytes_per_s"] = closedBytes / float64(closedOK) * out["goodput_rps"]
	out["edge.closed_mean_us"] = closedLatNs / 1e3 / float64(closedOK)
	share, bySrc := sourceMix(l.closed, l.gen.tgt.Sources)
	var mixUs float64
	for _, name := range l.gen.tgt.Sources {
		p50 := median(bySrc[name])
		out["edge."+name+"_p50_us"] = p50
		out["edge.share_"+name] = share[name]
		mixUs += share[name] * p50
	}
	out["edge.source_mix_us"] = mixUs
	out["edge.errors"] = float64(l.stepCounters.Errors)
	out["edge.notfound"] = float64(l.stepCounters.NotFound)
	out["origin.fetches_per_kreq"] = float64(l.stepCounters.OriginFetches) / timed * 1000
	out["control.reports_per_s"] = float64(l.stepCounters.ReportBatches) / l.stepWall.Seconds()
	_, applied := l.reconcileMs()
	out["control.reconcile_applied_frac"] = float64(applied) / float64(len(l.reconciles))
	out["control.audit_duration_ms"] = median(l.c.auditDurationsMs())
	var late []float64
	for _, ph := range l.open {
		for _, s := range ph.Samples {
			late = append(late, float64(s.LateNs)/1e6)
		}
	}
	sort.Float64s(late)
	out["gen.late_p99_ms"] = quantileSorted(late, 0.99)

	// Floors: one loopback net/http hop with no CDN work, and the origin
	// asked directly.
	probe := l.requests(floorProbes)
	ping, err := getP50Us(l.gen.client, func(i int) string { return l.gen.tgt.EdgeURLs[i%len(l.gen.tgt.EdgeURLs)] + "/admin/ping" })
	if err != nil {
		return err
	}
	direct, err := getP50Us(l.gen.client, func(i int) string {
		return l.c.originURL() + "/obj/" + strconv.Itoa(probe[i].Site) + "/" + strconv.Itoa(probe[i].Object)
	})
	if err != nil {
		return err
	}
	out["http.ping_p50_us"] = ping
	out["origin.direct_p50_us"] = direct
	out["edge.miss_overhead_us"] = out["edge.origin_p50_us"] - direct

	sizes := make([]int64, len(probe))
	for i, r := range probe {
		sizes[i] = l.c.objectSize(r.Site, r.Object)
	}
	out["body.pattern_ns_per_kib"] = patternNsPerKiB(sizes)
	out["gen.verify_ns_per_req"] = verifyNsPerReq(sizes)
	if out["control.observe_ns"], out["control.roll_demand_us"], err = l.c.estimatorProbe(probe); err != nil {
		return err
	}

	// The traced repetitions ran the same list with the same control events
	// on a deployment with the edges' tracer on and the benchmark's own
	// root span around every request, round for round with the untraced
	// ones, so a slow stretch of the machine fell on both; the ratio of the
	// quiet times is the tracing overhead.
	out["trace.overhead_frac"] = 1 - closedSeconds(l.closed)/closedSeconds(l.traced.closed)
	roots, retries, err := buildTraces(l.trace)
	if err != nil {
		return err
	}
	budget := reduceTraces(roots)
	out["edge.retries"] = float64(retries)
	out["trace.client_self_us"] = budget.SelfUs[spanClient]
	for _, kind := range programSpanKinds {
		out["trace."+kind+"_self_us"] = budget.SelfUs[kind]
	}
	out["trace.coverage_frac"] = budget.Coverage
	return nil
}

// sourceMix returns, over the verified samples of the given phases, the
// share of each X-Cdn-Source and its latencies in microseconds.
func sourceMix(phases []phase, sources []string) (share map[string]float64, latUs map[string][]float64) {
	share, latUs = map[string]float64{}, map[string][]float64{}
	var total float64
	for _, ph := range phases {
		for _, s := range ph.Samples {
			if s.Src >= 0 {
				latUs[sources[s.Src]] = append(latUs[sources[s.Src]], float64(s.LatNs)/1e3)
				total++
			}
		}
	}
	for _, name := range sources {
		share[name] = float64(len(latUs[name])) / total
	}
	return share, latUs
}

// getP50Us GETs floorProbes URLs one after another on a kept-alive
// connection and returns the median round trip in microseconds.
func getP50Us(client *http.Client, url func(i int) string) (float64, error) {
	lat := make([]float64, 0, floorProbes)
	for i := 0; i < floorProbes; i++ {
		u := url(i)
		start := time.Now()
		status, _, err := getBody(client, u)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d", u, status)
		}
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	return median(lat), nil
}
