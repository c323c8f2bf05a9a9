// Command cdnd launches the whole hybrid CDN on loopback in one process:
// the control plane, the origin and every edge — the internal/clusterd
// components that cdncontrol, cdnorigin and cdnedge run one per process —
// then drives the cluster's load generator (cdnload's) against them and
// prints where requests were served from.
//
// -metrics is the control plane's listen address: /metrics, /debug/vars,
// /debug/pprof/, /debug/control{,/audit,/reconcile,/shards} and
// /debug/health are the ones cdncontrol serves, and cmd/cdnctl is their
// client. Each edge and the origin serve their own /metrics on the
// addresses printed at start-up. The control plane reconciles placement
// every -control-interval against the demand the edges report (0: only
// when asked to, or when an edge joins, fails or recovers).
//
// With -fault-mode the load generator faults -fault-edge for the request
// window [-fault-from, -fault-to): clients steer around it, the control
// plane's prober ejects it and reconciles placement without it, and the
// run must still lose no request. With -trace every edge and the origin
// record their spans (serve/health/failover/upstream/retry/origin,
// stitched into one trace per client request by the Traceparent header)
// to one JSONL file for cmd/cdntrace.
//
// cdnd exits 0 iff no request failed. SIGINT/SIGTERM stop the load and
// shut the cluster down cleanly.
//
// Usage:
//
//	cdnd                              # default: 6 edges, 8 sites, 2000 requests
//	cdnd -requests 5000 -hopdelay 2ms -capacity 0.15
//	cdnd -metrics 127.0.0.1:8080 -control-interval 5s -linger 10m
//	cdnd -fault-mode error -fault-edge 1 -fault-from 500 -fault-to 1500
//	cdnd -trace run.jsonl && cdntrace run.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/clusterd"
	"repro/internal/fault"
	"repro/internal/lrumodel"
	"repro/internal/obs"
)

type options struct {
	params    clusterd.Params
	control   clusterd.ControlConfig
	load      clusterd.LoadConfig
	hopDelay  time.Duration
	tracePath string
	linger    time.Duration
}

func main() {
	var opt options
	flag.IntVar(&opt.load.Requests, "requests", 2000, "client requests to issue")
	flag.Uint64Var(&opt.params.Seed, "seed", 1, "scenario seed (the request streams derive from it too)")
	flag.DurationVar(&opt.hopDelay, "hopdelay", time.Millisecond, "artificial delay per topology hop")
	flag.Float64Var(&opt.params.CapacityFrac, "capacity", 0.15, "per-edge storage as a fraction of total content bytes")
	flag.IntVar(&opt.params.Edges, "edges", 6, "number of CDN edge servers")
	flag.StringVar(&opt.control.Model, "model", "", "analytical hit-ratio model placement and the control loop optimize with: eq1 (default), che or random")
	flag.StringVar(&opt.control.Addr, "metrics", "", "control plane listen address: /metrics, /debug/vars, /debug/pprof/, /debug/control and /debug/health (default: a free loopback port)")
	flag.StringVar(&opt.tracePath, "trace", "", "write a JSONL span trace to this file (analyze with cdntrace)")
	flag.DurationVar(&opt.linger, "linger", 0, "keep the cluster up this long after the run")
	flag.DurationVar(&opt.control.Interval, "control-interval", 0, "reconcile placement at this interval (0 = only on request and on membership or health changes)")
	flag.Float64Var(&opt.control.Hysteresis, "control-hysteresis", 0, "minimum net benefit, as a fraction of current predicted cost, before a plan applies (0 = default, negative = off)")
	flag.IntVar(&opt.control.CooldownRounds, "control-cooldown", 0, "reconcile rounds a just-changed site stays frozen (0 = default, negative = off)")
	flag.StringVar(&opt.load.FaultMode, "fault-mode", "off", "fault to inject into -fault-edge: off, error, latency or blackhole")
	flag.IntVar(&opt.load.FaultEdge, "fault-edge", 0, "edge id the injector degrades")
	flag.IntVar(&opt.load.FaultAt, "fault-from", 0, "client request index at which the fault starts")
	flag.IntVar(&opt.load.ClearAt, "fault-to", 0, "client request index at which the fault clears (0 = never)")
	flag.Float64Var(&opt.load.StaleLinkFrac, "stale-links", 0, "fraction of requests aimed at out-of-catalog sites (must 404)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdnd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opt options, out io.Writer) (err error) {
	if _, err := lrumodel.ParseModelKind(opt.control.Model); err != nil {
		return fmt.Errorf("-model: %w", err)
	}
	switch mode, ok := fault.ParseMode(opt.load.FaultMode); {
	case !ok:
		return fmt.Errorf("bad -fault-mode %q (want off, error, latency or blackhole)", opt.load.FaultMode)
	case mode == fault.ModeOff:
		opt.load.FaultEdge = -1
	}
	// Every line goes through one logger: the control plane's goroutines
	// and the load workers print too.
	logf := log.New(out, "", 0).Printf
	opt.control.Logf = logf
	if opt.control.Interval <= 0 {
		opt.control.Interval = time.Hour
	}

	// One tracer for every component, so a span's parent is in the same
	// file whichever process-to-be emitted it.
	var tracer *obs.Tracer
	if opt.tracePath != "" {
		tf, err := os.Create(opt.tracePath)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		defer tf.Close()
		tracer = obs.NewTracer(tf)
	}

	cl, err := clusterd.StartLocal(opt.params, opt.control,
		clusterd.OriginConfig{Tracer: tracer},
		clusterd.EdgeConfig{PerHopDelay: opt.hopDelay, Tracer: tracer})
	if err != nil {
		return err
	}
	if tracer != nil {
		tracer.CountDrops(cl.Control.Registry().Counter("cdn_trace_dropped_total",
			"Trace records discarded after a write error.", nil))
	}
	defer func() {
		// Spans are complete once every server has drained; a dying disk
		// shows up here and in the counter above rather than as a silently
		// truncated file.
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		cl.Shutdown(sctx)
		if tracer != nil {
			ferr := tracer.Flush()
			logf("trace: wrote %s (%d records dropped)", opt.tracePath, tracer.Dropped())
			if ferr != nil && err == nil {
				err = fmt.Errorf("trace %s: %w", opt.tracePath, ferr)
			}
		}
	}()

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
