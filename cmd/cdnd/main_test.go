package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clusterd"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/traceanalysis"
)

// TestParse: every role takes its own flags with its own defaults, and
// rejects another role's flags and an unknown role (main exits 2 on
// any parse error).
func TestParse(t *testing.T) {
	const control = "http://127.0.0.1:9300"
	for _, tt := range []struct {
		name string // default: the arguments
		args []string
		want func(*options) // edits the zero options into the expected ones
		err  string         // non-empty: parse must fail with this in the error
	}{
		{name: "no role: defaults", want: func(o *options) {
			o.params = clusterd.Params{Edges: 6, Seed: 1, CapacityFrac: 0.15}
			o.load.Requests, o.load.FaultMode = 2000, "off"
			o.edge.PerHopDelay = time.Millisecond
			o.controlURL, o.wait, o.out = control, 30*time.Second, "-"
		}},
		{name: "no role: every flag", args: strings.Fields("-requests 1500 -fault-mode error -fault-edge 1 -fault-from 300 -fault-to 900 -addr 127.0.0.1:8080 -interval 5s -hysteresis 0.1 -cooldown 2 -hopdelay 200us -edges 3 -seed 9 -capacity 0.3 -model che -trace t.jsonl -linger 1m -stale-links 0.2"),
			want: func(o *options) {
				o.params = clusterd.Params{Edges: 3, Seed: 9, CapacityFrac: 0.3}
				o.control = clusterd.ControlConfig{Addr: "127.0.0.1:8080", Interval: 5 * time.Second, Hysteresis: 0.1, CooldownRounds: 2, Model: "che"}
				o.load = clusterd.LoadConfig{Requests: 1500, FaultMode: "error", FaultEdge: 1, FaultAt: 300, ClearAt: 900, StaleLinkFrac: 0.2}
				o.edge.PerHopDelay = 200 * time.Microsecond
				o.tracePath, o.linger = "t.jsonl", time.Minute
				o.controlURL, o.wait, o.out = control, 30*time.Second, "-"
			}},
		{name: "control: defaults", args: []string{"control"}, want: func(o *options) {
			o.role, o.params = roleControl, clusterd.Params{Edges: 2, Seed: 1, CapacityFrac: 0.15}
			o.control = clusterd.ControlConfig{Addr: "127.0.0.1:9300", Interval: 2 * time.Second,
				ReportEvery: clusterd.DefaultReportEvery, ProbeEvery: clusterd.DefaultProbeEvery,
				ProbeTimeout: clusterd.DefaultProbeTimeout, FailThreshold: 3}
			o.controlURL, o.wait, o.out = control, 30*time.Second, "-"
		}},
		{name: "control: every flag", args: strings.Fields("control -addr :9400 -edges 4 -seed 5 -capacity 0.2 -interval 500ms -report-every 100ms -probe-every 50ms -probe-timeout 250ms -fail-threshold 2 -hysteresis=-1 -cooldown=-1 -model random -quiet"),
			want: func(o *options) {
				o.role, o.params = roleControl, clusterd.Params{Edges: 4, Seed: 5, CapacityFrac: 0.2}
				o.control = clusterd.ControlConfig{Addr: ":9400", Interval: 500 * time.Millisecond,
					ReportEvery: 100 * time.Millisecond, ProbeEvery: 50 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond,
					FailThreshold: 2, Hysteresis: -1, CooldownRounds: -1, Model: "random"}
				o.controlURL, o.wait, o.out, o.quiet = control, 30*time.Second, "-", true
			}},
		{name: "origin: defaults", args: []string{"origin"}, want: func(o *options) {
			o.role, o.origin.Addr = roleOrigin, "127.0.0.1:9301"
			o.controlURL, o.wait, o.out = control, 30*time.Second, "-"
		}},
		{name: "origin: every flag", args: strings.Fields("origin -addr :9302 -control http://c:9300 -wait 5s -trace o.jsonl -quiet"), want: func(o *options) {
			o.role, o.origin.Addr, o.tracePath = roleOrigin, ":9302", "o.jsonl"
			o.controlURL, o.wait, o.out, o.quiet = "http://c:9300", 5*time.Second, "-", true
		}},
		{name: "edge: defaults", args: []string{"edge"}, want: func(o *options) {
			o.role, o.edge.Addr = roleEdge, "127.0.0.1:9310"
			o.controlURL, o.wait, o.out = control, 30*time.Second, "-"
		}},
		{name: "edge: every flag", args: strings.Fields("edge -id 1 -addr :9311 -control http://c:9300 -wait 5s -trace e.jsonl -hopdelay 1ms -fail-threshold 4 -eject-for 1s -quiet"), want: func(o *options) {
			o.role, o.tracePath = roleEdge, "e.jsonl"
			o.edge = clusterd.EdgeConfig{ID: 1, Addr: ":9311",
				Config: httpcdn.Config{PerHopDelay: time.Millisecond, FailThreshold: 4, EjectFor: time.Second}}
			o.controlURL, o.wait, o.out, o.quiet = "http://c:9300", 5*time.Second, "-", true
		}},
		{name: "load: defaults", args: []string{"load"}, want: func(o *options) {
			o.role, o.load = roleLoad, clusterd.LoadConfig{Requests: 5000, Workers: 8, Seed: 42, FaultMode: "off"}
			o.controlURL, o.wait, o.out = control, 30*time.Second, "-"
		}},
		{name: "load: every flag", args: strings.Fields("load -control http://c:9300 -wait 5s -requests 100 -workers 2 -seed 3 -fault-mode latency -fault-edge 1 -fault-from 10 -fault-to 50 -stale-links 0.1 -out r.json -quiet"),
			want: func(o *options) {
				o.role = roleLoad
				o.load = clusterd.LoadConfig{Requests: 100, Workers: 2, Seed: 3, FaultMode: "latency", FaultEdge: 1, FaultAt: 10, ClearAt: 50, StaleLinkFrac: 0.1}
				o.controlURL, o.wait, o.out, o.quiet = "http://c:9300", 5*time.Second, "r.json", true
			}},

		{args: strings.Fields("origin -requests 5"), err: "-requests"},
		{args: strings.Fields("control -trace t.jsonl"), err: "-trace"},
		{args: strings.Fields("edge -edges 3"), err: "-edges"},
		{args: strings.Fields("control -shards 8"), err: "-shards"},
		{args: strings.Fields("control -eject-for 500ms"), err: "-eject-for"},
		{args: strings.Fields("load -addr :9300"), err: "-addr"},
		{args: strings.Fields("-quiet"), err: "-quiet"},
		{args: strings.Fields("edge -max-object-bytes 1024"), err: "-max-object-bytes"},
		{args: strings.Fields("-metrics 127.0.0.1:8080"), err: "-metrics"},
		{args: []string{"cache"}, err: `unknown role "cache"`},
		{args: strings.Fields("edge extra"), err: `unexpected argument "extra"`},
		{args: strings.Fields("-model lfu"), err: "-model"},
		{args: strings.Fields("-edges 17"), err: "topology: cannot place 25 nodes in 24 stub slots"},
		{args: strings.Fields("control -edges 17"), err: "topology: cannot place 25 nodes in 24 stub slots"},
		{args: strings.Fields("-edges 0"), err: "clusterd: 0 edges"},
		{args: strings.Fields("-requests 50 -hopdelay -5ms"), err: "-hopdelay must not be negative"},
		{args: strings.Fields("-linger -1s"), err: "-linger must not be negative"},
		{args: strings.Fields("edge -eject-for -1s"), err: "-eject-for must not be negative"},
		{args: strings.Fields("edge -fail-threshold -2"), err: "-fail-threshold must not be negative"},
		{args: strings.Fields("edge -wait -1s"), err: "-wait must not be negative"},
		{args: strings.Fields("control -fail-threshold -1"), err: "-fail-threshold must not be negative"},
		{args: strings.Fields("control -report-every -1ms"), err: "-report-every must not be negative"},
		{args: strings.Fields("control -probe-every -1ms"), err: "-probe-every must not be negative"},
		{args: strings.Fields("control -probe-timeout -1ms"), err: "-probe-timeout must not be negative"},
	} {
		if tt.name == "" {
			tt.name = strings.Join(tt.args, " ")
		}
		t.Run(tt.name, func(t *testing.T) {
			got, err := parse(tt.args)
			if tt.err != "" {
				if err == nil || !strings.Contains(err.Error(), tt.err) {
					t.Fatalf("parse = %v, want an error naming %q", err, tt.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var want options
			tt.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parse =\n%+v\nwant\n%+v", got, want)
			}
		})
	}
}

// launch runs cdnd with 300 requests on the default deployment, edited
// by mod, and returns what it printed.
func launch(t *testing.T, mod func(*options)) string {
	t.Helper()
	opt, err := parse([]string{"-requests", "300", "-hopdelay", "0"})
	if err != nil {
		t.Fatal(err)
	}
	mod(&opt)
	var out bytes.Buffer
	if err := run(context.Background(), opt, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return out.String()
}

// printed returns the integer the pattern's first group captures in out.
func printed(t *testing.T, out, pattern string) int {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no %q:\n%s", pattern, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunServesFromEverySource: a healthy launch loses nothing, serves
// from all four sources, and its trace — every edge's spans and the
// origin's in one file — passes the cdntrace check.
func TestRunServesFromEverySource(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	out := launch(t, func(o *options) { o.tracePath = trace })
	if n := printed(t, out, `(\d+) failed`); n != 0 {
		t.Fatalf("%d requests failed:\n%s", n, out)
	}
	for _, src := range obs.Sources {
		if n := printed(t, out, fmt.Sprintf(`(?m)^%s +(\d+) `, src)); n == 0 {
			t.Errorf("no request served from %s:\n%s", src, out)
		}
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var c traceanalysis.Corpus
	if err := c.Load(f); err != nil {
		t.Fatal(err)
	}
	if errs := c.Check(); len(errs) > 0 {
		t.Fatalf("trace check: %v", errs)
	}
	origin := 0
	for _, s := range c.Spans {
		if s.Kind == obs.SpanOrigin {
			origin++
		}
	}
	if origin == 0 {
		t.Fatalf("no origin span among %d spans", len(c.Spans))
	}
}

// TestRunFaultDrill: with an edge erroring for requests [50, 200) the
// launch still exits nil — nothing lost — and reports steered requests.
func TestRunFaultDrill(t *testing.T) {
	out := launch(t, func(o *options) {
		o.load.FaultMode, o.load.FaultEdge, o.load.FaultAt, o.load.ClearAt = "error", 1, 50, 200
	})
	if n := printed(t, out, `(\d+) steered`); n == 0 {
		t.Fatalf("no request steered around the faulted edge:\n%s", out)
	}
}

// TestTraceFlag runs cdnd origin's whole lifecycle with -trace: every
// fetch an edge traces leaves an origin span in the file, flushed on
// shutdown, and the file and the edge's stream together pass cdntrace's
// check — each origin span resolves to the edge attempt that caused it.
func TestTraceFlag(t *testing.T) {
	params := clusterd.DefaultParams()
	cp, err := clusterd.StartControl(params, clusterd.ControlConfig{Addr: "127.0.0.1:0", Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Shutdown(context.Background())

	tracePath := filepath.Join(t.TempDir(), "origin.jsonl")
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	opt, err := parse([]string{"origin", "-addr", "127.0.0.1:0", "-control", cp.URL(), "-wait", "10s", "-trace", tracePath, "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- run(ctx, opt, io.Discard) }()

	var edgeSpans bytes.Buffer // written under the tracer's lock, read after its last Flush
	edgeTracer := obs.NewTracer(&edgeSpans)
	e, err := clusterd.StartEdge(params, clusterd.EdgeConfig{ID: 0, Addr: "127.0.0.1:0", Tracer: edgeTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	// Register returns once the origin above has registered.
	if err := e.Register(rctx, cp.URL()); err != nil {
		t.Fatal(err)
	}

	sc, err := params.Build()
	if err != nil {
		t.Fatal(err)
	}
	fetched := 0
	for site := 0; site < sc.Sys.M(); site++ {
		res, err := httpcdn.Get(rctx, http.DefaultClient, e.URL(), site, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source == httpcdn.SourceOrigin {
			fetched++
		}
	}
	if fetched == 0 {
		t.Fatal("no request reached the origin")
	}

	stop()
	if err := <-done; err != nil {
		t.Fatalf("cdnd origin: %v", err)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := edgeTracer.Flush(); err != nil {
		t.Fatal(err)
	}

	originFile, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var corpus traceanalysis.Corpus
	if err := corpus.Load(bytes.NewReader(originFile)); err != nil {
		t.Fatal(err)
	}
	if len(corpus.Spans) != fetched {
		t.Fatalf("%d spans in the origin's file, want one per origin fetch (%d)", len(corpus.Spans), fetched)
	}
	for _, s := range corpus.Spans {
		if s.Kind != obs.SpanOrigin || s.Parent == "" {
			t.Fatalf("origin's file holds %+v, want origin spans with a parent", s)
		}
	}
	if err := corpus.Load(&edgeSpans); err != nil {
		t.Fatal(err)
	}
	for _, err := range corpus.Check() {
		t.Error(err)
	}
}
