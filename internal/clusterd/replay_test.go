package clusterd

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestLiveTrafficReplays: the serve spans a live cluster's edges write
// replay through sim.SpanSource as exactly the requests its client sent —
// one per request, in order — so each edge's and each site's counts are
// the ones the edges counted, and the internal fetches between edges are
// left out. (What serves each request is not compared: the simulator
// and the edge still charge different object sizes.)
func TestLiveTrafficReplays(t *testing.T) {
	// Two of these edges fetch from a peer (~100 fetches in this run).
	params := Params{Edges: 4, Seed: 4, CapacityFrac: 0.4}
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	// No reconcile and no demand report during the run: the placement
	// stays the initial one, and each edge's per-site counts stay put.
	tc := startClusterEdges(t, params, ControlConfig{Interval: time.Hour, ReportEvery: time.Hour},
		EdgeConfig{Tracer: tracer})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const requests, seed = 2000, 7
	res, err := RunLoad(ctx, LoadConfig{ControlURL: tc.Control.URL(), Requests: requests, Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d of %d requests failed", res.Errors, res.Requests)
	}
	served := make([]int64, params.Edges)
	var peerFetches int64
	counted := make([][]int64, params.Edges) // the edges' demand taps, by edge and site
	for i, e := range tc.Edges {
		st := e.Stats()
		served[i] = st.Replica + st.CacheHit + st.PeerFetch + st.OriginFetch
		peerFetches += st.PeerFetch
		for j := range e.counts {
			counted[i] = append(counted[i], e.counts[j].Load())
		}
	}
	// Shutting down waits for every serve span to end, and its final
	// report flush empties the taps read above.
	tc.shutdown()
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	spans, err := obs.ReadTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	internal := make([]int64, params.Edges)
	for _, s := range spans {
		if s.Kind == obs.SpanServe && s.Parent != "" {
			internal[s.Edge]++
		}
	}
	src, err := sim.SpanSource(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := params.Build()
	if err != nil {
		t.Fatal(err)
	}
	// RunLoad's one worker draws its requests from this stream.
	stream := workload.NewStream(sc.Work, xrand.New(seed+1000))
	replayed := make([][]int64, params.Edges)
	for i := range replayed {
		replayed[i] = make([]int64, sc.Sys.M())
	}
	for k := 0; k < requests; k++ {
		req, ok := src.Next()
		if !ok {
			t.Fatalf("the trace replays %d of %d requests", k, requests)
		}
		if want := stream.Next(); req != want {
			t.Fatalf("replayed request %d is %+v, the client sent %+v", k, req, want)
		}
		replayed[req.Server][req.Site]++
	}
	if req, ok := src.Next(); ok {
		t.Fatalf("the trace replays more than the %d client requests: %+v", requests, req)
	}
	if !reflect.DeepEqual(replayed, counted) {
		t.Fatalf("replayed requests by edge and site %v, the edges counted %v", replayed, counted)
	}
	var internalTotal int64
	for i := range served {
		var client int64
		for _, n := range replayed[i] {
			client += n
		}
		if served[i] != client+internal[i] {
			t.Errorf("edge %d served %d: %d replayed client requests plus %d internal fetches", i, served[i], client, internal[i])
		}
		internalTotal += internal[i]
	}
	if internalTotal == 0 || internalTotal != peerFetches {
		t.Fatalf("%d internal fetch spans for %d peer fetches; want as many, and some", internalTotal, peerFetches)
	}
}
