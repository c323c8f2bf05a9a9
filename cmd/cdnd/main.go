// Command cdnd runs the hybrid CDN's internal/clusterd components. With
// no role it boots the control plane, the origin and every edge on
// loopback in one process, drives the load generator against them and
// prints where requests were served from. With a role it runs one
// component per process:
//
//	cdnd control   scenario owner, roster, sharded demand estimator,
//	               reconcile loop every -interval, health prober
//	cdnd origin    the primary copy of every site at /obj/{site}/{object}
//	cdnd edge      pinned replicas, then the LRU cache, then the cheapest
//	               healthy peer, then the origin
//	cdnd load      the load generator; the report goes to -out
//
// Origins and edges poll -control until it answers, then register, so
// components boot in any order. The control plane (-addr; with no role a
// free loopback port by default) serves /metrics, /debug/control and
// /debug/health for cmd/cdnctl. With -fault-mode the load faults edge
// -fault-edge for requests [-fault-from, -fault-to), and the run must
// still lose no request. With -trace every server in the process writes
// its spans to one JSONL file for cmd/cdntrace.
//
// cdnd and cdnd load exit 0 iff no request failed; a bad flag, or a flag
// of another role, exits 2. SIGINT/SIGTERM drain the servers and exit.
//
// Usage:
//
//	cdnd -requests 5000 -hopdelay 2ms -capacity 0.15
//	cdnd -addr 127.0.0.1:8080 -interval 5s -linger 10m
//	cdnd -fault-mode error -fault-edge 1 -fault-from 500 -fault-to 1500
//	cdnd -trace run.jsonl && cdntrace run.jsonl
//	cdnd control -addr 127.0.0.1:9300 -edges 2
//	cdnd origin -addr 127.0.0.1:9301 -control http://127.0.0.1:9300
//	cdnd edge -id 0 -addr 127.0.0.1:9310 -control http://127.0.0.1:9300
//	cdnd load -fault-mode error -fault-edge 1 -fault-from 1250 -fault-to 3000 -out BENCH_cluster.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/clusterd"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/serverutil"
)

// The roles cdnd runs; roleAll, no role on the command line, is the
// whole CDN in one process.
const (
	roleAll     = ""
	roleControl = "control"
	roleOrigin  = "origin"
	roleEdge    = "edge"
	roleLoad    = "load"
)

type options struct {
	role       string
	params     clusterd.Params
	control    clusterd.ControlConfig
	origin     clusterd.OriginConfig
	edge       clusterd.EdgeConfig
	load       clusterd.LoadConfig
	controlURL string        // origin, edge, load: the control plane to join
	wait       time.Duration // origin, edge, load: how long to wait for it
	tracePath  string
	linger     time.Duration
	out        string
	quiet      bool
}

func main() {
	opt, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdnd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdnd:", err)
		os.Exit(1)
	}
}

// nonNegative names the flags parse rejects a negative value of.
var nonNegative = map[string]bool{
	"hopdelay": true, "eject-for": true, "fail-threshold": true,
	"report-every": true, "probe-every": true, "probe-timeout": true,
	"linger": true, "wait": true,
}

// parse reads the role and its flags. Each flag is registered once, for
// the roles that take it, with the role's default.
func parse(args []string) (options, error) {
	var opt options
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		opt.role, args = args[0], args[1:]
	}
	opt.controlURL, opt.wait, opt.out = "http://127.0.0.1:9300", 30*time.Second, "-"
	// Flags some roles read into different fields.
	addr, seed, failThreshold := &opt.control.Addr, &opt.params.Seed, &opt.control.FailThreshold
	switch opt.role {
	case roleAll:
		opt.params = clusterd.Params{Edges: 6, Seed: 1, CapacityFrac: 0.15}
		opt.load.Requests, opt.load.FaultMode = 2000, "off"
		opt.edge.PerHopDelay = time.Millisecond
	case roleControl:
		opt.params = clusterd.DefaultParams()
		opt.control = clusterd.ControlConfig{
			Addr: "127.0.0.1:9300", Interval: 2 * time.Second,
			ReportEvery: clusterd.DefaultReportEvery, ProbeEvery: clusterd.DefaultProbeEvery,
			ProbeTimeout: clusterd.DefaultProbeTimeout, FailThreshold: 3,
		}
	case roleOrigin:
		addr = &opt.origin.Addr
		*addr = "127.0.0.1:9301"
	case roleEdge:
		addr, failThreshold = &opt.edge.Addr, &opt.edge.FailThreshold
		*addr = "127.0.0.1:9310"
	case roleLoad:
		seed = &opt.load.Seed
		opt.load = clusterd.LoadConfig{Requests: 5000, Workers: 8, Seed: 42, FaultMode: "off"}
	default:
		return opt, fmt.Errorf("unknown role %q (want control, origin, edge or load)", opt.role)
	}

	fs := flag.NewFlagSet(strings.TrimSpace("cdnd "+opt.role), flag.ContinueOnError)
	takes := func(roles ...string) bool { return slices.Contains(roles, opt.role) }
	if takes(roleAll, roleControl, roleOrigin, roleEdge) {
		fs.StringVar(addr, "addr", *addr, "listen address; with no role the control plane's (empty: a free loopback port)")
	}
	if takes(roleAll, roleControl) {
		fs.IntVar(&opt.params.Edges, "edges", opt.params.Edges, "number of CDN edge servers")
		fs.Float64Var(&opt.params.CapacityFrac, "capacity", opt.params.CapacityFrac, "per-edge storage as a fraction of total content bytes")
		fs.StringVar(&opt.control.Model, "model", "", "analytical hit-ratio model placement and the control loop optimize with: eq1 (default), che or random")
		fs.DurationVar(&opt.control.Interval, "interval", opt.control.Interval, "reconcile placement at this interval (with no role, 0 = only on request and on membership or health changes)")
		fs.Float64Var(&opt.control.Hysteresis, "hysteresis", 0, "minimum net benefit, as a fraction of current predicted cost, before a plan applies (0 = default, negative = off)")
		fs.IntVar(&opt.control.CooldownRounds, "cooldown", 0, "reconcile rounds a just-changed site stays frozen (0 = default, negative = off)")
	}
	if takes(roleAll, roleControl, roleLoad) {
		fs.Uint64Var(seed, "seed", *seed, "scenario seed (load: the request-stream seed, independent of the scenario's)")
	}
	if takes(roleControl) {
		fs.DurationVar(&opt.control.ReportEvery, "report-every", opt.control.ReportEvery, "demand-report cadence handed to edges")
		fs.DurationVar(&opt.control.ProbeEvery, "probe-every", opt.control.ProbeEvery, "active health probe cadence")
		fs.DurationVar(&opt.control.ProbeTimeout, "probe-timeout", opt.control.ProbeTimeout, "per-probe timeout")
	}
	if takes(roleControl, roleEdge) {
		fs.IntVar(failThreshold, "fail-threshold", *failThreshold, "consecutive failures (control: of probes, edge: of upstream fetches) before ejection (0 = default)")
	}
	if takes(roleOrigin, roleEdge, roleLoad) {
		fs.StringVar(&opt.controlURL, "control", opt.controlURL, "control plane base URL")
		fs.DurationVar(&opt.wait, "wait", opt.wait, "how long to wait for the control plane (load: for every member) to come up")
	}
	if takes(roleControl, roleOrigin, roleEdge, roleLoad) {
		fs.BoolVar(&opt.quiet, "quiet", false, "suppress log output")
	}
	if takes(roleAll, roleOrigin, roleEdge) {
		fs.StringVar(&opt.tracePath, "trace", "", "write a JSONL span trace to this file (analyze with cdntrace)")
	}
	if takes(roleAll, roleEdge) {
		fs.DurationVar(&opt.edge.PerHopDelay, "hopdelay", opt.edge.PerHopDelay, "artificial delay per topology hop")
	}
	if takes(roleEdge) {
		fs.IntVar(&opt.edge.ID, "id", 0, "edge id in 0..edges-1")
		fs.DurationVar(&opt.edge.EjectFor, "eject-for", 0, "backoff window after an upstream ejection (0 = default)")
	}
	if takes(roleAll, roleLoad) {
		fs.IntVar(&opt.load.Requests, "requests", opt.load.Requests, "client requests to issue")
		fs.StringVar(&opt.load.FaultMode, "fault-mode", opt.load.FaultMode, "fault to inject into -fault-edge: off, error, latency or blackhole")
		fs.IntVar(&opt.load.FaultEdge, "fault-edge", 0, "edge id the injector degrades")
		fs.IntVar(&opt.load.FaultAt, "fault-from", 0, "client request index at which the fault starts")
		fs.IntVar(&opt.load.ClearAt, "fault-to", 0, "client request index at which the fault clears (0 = never)")
		fs.Float64Var(&opt.load.StaleLinkFrac, "stale-links", 0, "fraction of requests aimed at out-of-catalog sites (must 404)")
	}
	if takes(roleAll) {
		fs.DurationVar(&opt.linger, "linger", 0, "keep the cluster up this long after the run")
	}
	if takes(roleLoad) {
		fs.IntVar(&opt.load.Workers, "workers", opt.load.Workers, "concurrent client workers")
		fs.StringVar(&opt.out, "out", opt.out, "write the JSON report here (- = stdout)")
	}

	// main reports a bad flag; only -h prints the flag list.
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// A negative duration or threshold would quietly become its default
	// (or no delay at all); -hysteresis and -cooldown keep "negative =
	// off". Every default is non-negative, so only set flags can be.
	var neg error
	fs.Visit(func(f *flag.Flag) {
		if neg == nil && nonNegative[f.Name] && strings.HasPrefix(f.Value.String(), "-") {
			neg = fmt.Errorf("-%s must not be negative, got %s", f.Name, f.Value)
		}
	})
	if neg != nil {
		return opt, neg
	}
	if _, err := lrumodel.ParseModelKind(opt.control.Model); err != nil {
		return opt, fmt.Errorf("-model: %w", err)
	}
	// The roles that own the scenario build it once here, so an -edges
	// the topology has no room for is a usage error, not a failed run.
	if takes(roleAll, roleControl) {
		if _, err := opt.params.Build(); err != nil {
			return opt, err
		}
	}
	return opt, nil
}

// drain runs a started server's Shutdown, giving in-flight requests 15 s.
func drain(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return shutdown(ctx)
}

// serve keeps a server up until SIGINT or SIGTERM (ctx), then drains it.
func serve(ctx context.Context, shutdown func(context.Context) error) error {
	<-ctx.Done()
	return drain(shutdown)
}

func run(ctx context.Context, opt options, out io.Writer) (err error) {
	logf := func(string, ...any) {}
	switch {
	case opt.role == roleAll:
		// Every line goes through one logger: the control plane's
		// goroutines and the load workers print too.
		logf = log.New(out, "", 0).Printf
	case !opt.quiet:
		name := opt.role
		if opt.role == roleEdge {
			name = fmt.Sprintf("edge[%d]", opt.edge.ID)
		}
		logf = log.New(os.Stderr, "cdnd "+name+": ", log.LstdFlags|log.Lmsgprefix).Printf
	}

	// One tracer for every component in the process, so a span's parent
	// is in the same file whichever component emitted it.
	if opt.tracePath != "" {
		tf, err := os.Create(opt.tracePath)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		tracer := obs.NewTracer(tf)
		opt.origin.Tracer, opt.edge.Tracer = tracer, tracer
		defer func() {
			// Spans are complete once every server has drained, which
			// the role below does before it returns; a dying disk shows
			// up here rather than as a silently truncated file.
			ferr := tracer.Flush()
			if cerr := tf.Close(); ferr == nil {
				ferr = cerr
			}
			logf("trace: wrote %s (%d records dropped)", opt.tracePath, tracer.Dropped())
			if ferr != nil && err == nil {
				err = fmt.Errorf("trace %s: %w", opt.tracePath, ferr)
			}
		}()
	}

	switch opt.role {
	case roleAll:
		return runAll(ctx, opt, logf)
	case roleControl:
		opt.control.Logf = logf
		cp, err := clusterd.StartControl(opt.params, opt.control)
		if err != nil {
			return err
		}
		logf("serving %d-edge scenario (seed %d) at %s", opt.params.Edges, opt.params.Seed, cp.URL())
		return serve(ctx, cp.Shutdown)
	case roleLoad:
		return runLoad(ctx, opt, logf)
	default:
		return join(ctx, opt, logf)
	}
}

// join starts an origin or an edge on the scenario the control plane
// serves, registers it, and serves until signalled.
func join(ctx context.Context, opt options, logf func(string, ...any)) error {
	if err := serverutil.WaitReady(ctx, nil, opt.controlURL+"/cluster/config", opt.wait); err != nil {
		return fmt.Errorf("control plane at %s: %w", opt.controlURL, err)
	}
	params, err := clusterd.FetchParams(ctx, nil, opt.controlURL)
	if err != nil {
		return err
	}
	var url string
	var register func() error
	var shutdown func(context.Context) error
	if opt.role == roleOrigin {
		opt.origin.Logf = logf
		o, err := clusterd.StartOrigin(params, opt.origin)
		if err != nil {
			return err
		}
		url, shutdown = o.URL(), o.Shutdown
		register = func() error { return o.Register(ctx, nil, opt.controlURL) }
	} else {
		opt.edge.Logf = logf
		e, err := clusterd.StartEdge(params, opt.edge)
		if err != nil {
			return err
		}
		url, shutdown = e.URL(), e.Shutdown
		register = func() error { return e.Register(ctx, opt.controlURL) }
	}
	if err := register(); err != nil {
		drain(shutdown)
		return err
	}
	logf("serving at %s (scenario: %d edges, seed %d)", url, params.Edges, params.Seed)
	return serve(ctx, shutdown)
}

// runLoad drives the load against a deployed cluster once every member
// has registered.
func runLoad(ctx context.Context, opt options, logf func(string, ...any)) error {
	wctx, cancel := context.WithTimeout(ctx, opt.wait)
	defer cancel()
	if _, err := clusterd.WaitMembers(wctx, nil, opt.controlURL); err != nil {
		return err
	}
	logf("cluster up, driving %d requests from %d workers", opt.load.Requests, opt.load.Workers)
	opt.load.ControlURL, opt.load.Logf = opt.controlURL, logf
	res, err := clusterd.RunLoad(ctx, opt.load)
	if err != nil {
		return err
	}
	if err := clusterd.WriteReport(opt.out, res); err != nil {
		return err
	}
	logf("%d requests in %.0f ms: %.0f req/s, p50 %.2f ms, p99 %.2f ms, %d errors, %d steered, %d stale 404s",
		res.Requests, res.DurationMs, res.ReqPerSec, res.Latency.P50, res.Latency.P99, res.Errors, res.Steered, res.NotFound)
	return lost(res)
}

// runAll boots the whole CDN in this process, drives the load against
// it and reports where requests were served from.
func runAll(ctx context.Context, opt options, logf func(string, ...any)) error {
	opt.control.Logf = logf
	if opt.control.Interval <= 0 {
		opt.control.Interval = time.Hour
	}
	cl, err := clusterd.StartLocal(opt.params, opt.control, opt.origin, opt.edge)
	if err != nil {
		return err
	}
	if opt.edge.Tracer != nil {
		opt.edge.Tracer.CountDrops(cl.Control.Registry().Counter("cdn_trace_dropped_total",
			"Trace records discarded after a write error.", nil))
	}
	defer drain(cl.Shutdown)

	p, _ := cl.Control.Placement()
	logf("control plane at %s (/metrics, /debug/control, /debug/health), origin at %s", cl.Control.URL(), cl.Origin.URL())
	for i, e := range cl.Edges {
		var sites []int
		for j := 0; j < p.System().M(); j++ {
			if p.Has(i, j) {
				sites = append(sites, j)
			}
		}
		logf("edge %d at %s — replicas %v, cache %d MB", i, e.URL(), sites, p.Free(i)>>20)
	}

	logf("\nissuing %d client requests...", opt.load.Requests)
	opt.load.ControlURL, opt.load.Seed, opt.load.Logf = cl.Control.URL(), opt.params.Seed, logf
	res, err := clusterd.RunLoad(ctx, opt.load)
	if err != nil {
		return err
	}
	report(logf, res)
	st := cl.Control.Controller().Status()
	logf("\ncontrol: %d rounds (%d applied, %d skipped, %d noop, %d no-signal), %d replicas live",
		st.Rounds, st.Applied, st.Skipped, st.Noops, st.NoSignal, st.Replicas)

	if opt.linger > 0 && ctx.Err() == nil {
		logf("\nlingering %v (ctrl-c to stop)...", opt.linger)
		select {
		case <-time.After(opt.linger):
		case <-ctx.Done():
		}
	}
	return lost(res)
}

// lost fails a run that lost a request.
func lost(res *clusterd.LoadResult) error {
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}
	return nil
}

// report prints the load generator's measurements.
func report(logf func(string, ...any), res *clusterd.LoadResult) {
	logf("\n%d requests in %.0f ms (%.0f req/s), %d failed, %d steered around unhealthy edges, %d stale-link 404s",
		res.Requests, res.DurationMs, res.ReqPerSec, res.Errors, res.Steered, res.NotFound)
	logf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f",
		res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max)
	if res.Errors > 0 {
		logf("lost requests by error class: %v", res.ErrorClasses)
	}
	var total int64
	for _, n := range res.BySource {
		total += n
	}
	if total == 0 {
		return
	}
	logf("source      count  share")
	for _, src := range obs.Sources {
		logf("%-8s %8d %5.1f%%", src, res.BySource[src], 100*float64(res.BySource[src])/float64(total))
	}
	local := res.BySource[obs.SourceReplica] + res.BySource[obs.SourceCache]
	logf("\nfirst-hop locality: %.1f%% of requests never left their edge —", 100*float64(local)/float64(total))
	logf("the hybrid split at work over real HTTP.")
}
