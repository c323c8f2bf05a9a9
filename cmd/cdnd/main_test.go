package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/clusterd"
	"repro/internal/obs"
	"repro/internal/traceanalysis"
)

// launch runs cdnd with 300 requests on the default deployment, edited
// by mod, and returns what it printed.
func launch(t *testing.T, mod func(*options)) string {
	t.Helper()
	opt := options{params: clusterd.Params{Edges: 6, Seed: 1, CapacityFrac: 0.15}}
	opt.load.Requests, opt.load.FaultMode = 300, "off"
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
