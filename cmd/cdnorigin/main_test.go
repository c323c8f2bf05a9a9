package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clusterd"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/traceanalysis"
)

// TestTraceFlag runs the origin's whole lifecycle with -trace: every
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
	go func() {
		done <- run(ctx, cp.URL(), 10*time.Second, tracePath, clusterd.OriginConfig{Addr: "127.0.0.1:0"})
	}()

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
		t.Fatalf("cdnorigin: %v", err)
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
