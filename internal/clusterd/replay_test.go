package clusterd

import (
	"bytes"
	"cmp"
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestLiveMatchesSimulator runs a live cluster with one client worker and
// steps its traffic through the simulator's serve rule (sim.Stepper)
// over the same placement.
//
// First, the serve spans the edges write replay through sim.SpanSource
// as exactly the requests the client sent — one per request, in order —
// so each edge's and each site's counts are the ones the edges counted,
// and the internal fetches between edges are left out.
//
// Then, request by request: both sides serve from a replica alike, and
// every request both serve from a peer or the origin names the same
// source at the same hop count — core's one nearest-source rule on both.
// Which requests hit the cache is logged, not compared: the edge caches
// the capped body it serves and the simulator charges the catalog size.
func TestLiveMatchesSimulator(t *testing.T) {
	for _, tt := range []struct {
		name           string
		params         Params
		requests, seed int
		peers          bool // some edges fetch from a peer
	}{
		// Two of these edges fetch from a peer (~100 fetches).
		{"4 edges at 0.40", Params{Edges: 4, Seed: 4, CapacityFrac: 0.4}, 2000, 7, true},
		{"2 edges at 0.02", Params{Edges: 2, Seed: 1, CapacityFrac: 0.02}, 20000, 3, false},
		{"4 edges at 0.15", Params{Edges: 4, Seed: 1, CapacityFrac: 0.15}, 20000, 3, false},
		// ~1 000 peer fetches, and hundreds of requests whose nearest
		// peer is as near as the origin: the rule's tie order shows.
		{"6 edges at 0.15", Params{Edges: 6, Seed: 1, CapacityFrac: 0.15}, 20000, 3, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			liveMatchesSimulator(t, tt.params, tt.requests, uint64(tt.seed), tt.peers)
		})
	}
}

func liveMatchesSimulator(t *testing.T, params Params, requests int, seed uint64, peers bool) {
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	// No reconcile and no demand report during the run: the placement
	// stays the initial one, and each edge's per-site counts stay put.
	tc := startClusterEdges(t, params, ControlConfig{Interval: time.Hour, ReportEvery: time.Hour},
		EdgeConfig{Tracer: tracer})
	// A 20 000-request row takes ~4 s, and ~40 s under -race.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
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
	pl, _ := tc.Control.Placement()
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
	var client []obs.Span // the client-facing serve spans, in StartUs order
	for _, s := range spans {
		switch {
		case s.Kind != obs.SpanServe:
		case s.Parent != "":
			internal[s.Edge]++
		default:
			client = append(client, s)
		}
	}
	slices.SortStableFunc(client, func(a, b obs.Span) int { return cmp.Compare(a.StartUs, b.StartUs) })
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
	reqs := make([]workload.Request, requests)
	for k := range reqs {
		req, ok := src.Next()
		if !ok {
			t.Fatalf("the trace replays %d of %d requests", k, requests)
		}
		if want := stream.Next(); req != want {
			t.Fatalf("replayed request %d is %+v, the client sent %+v", k, req, want)
		}
		replayed[req.Server][req.Site]++
		reqs[k] = req
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
	if internalTotal != peerFetches || peers != (peerFetches > 0) {
		t.Fatalf("%d internal fetch spans for %d peer fetches; want as many, and some: %v", internalTotal, peerFetches, peers)
	}

	cfg := sim.DefaultConfig()
	cfg.UseCache = true
	st, err := sim.NewStepper(sc, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote := func(source string) bool { return source == obs.SourcePeer || source == obs.SourceOrigin }
	var compared, mismatched, hitMiss int
	for k, s := range client {
		hops, source := st.Step(reqs[k], true)
		live := s.Attrs["source"]
		switch {
		case remote(live) && remote(source):
			compared++
			liveHops, err := strconv.ParseFloat(s.Attrs["hops"], 64)
			if err != nil {
				t.Fatalf("request %d: hops %q: %v", k, s.Attrs["hops"], err)
			}
			if live != source || liveHops != hops {
				if mismatched++; mismatched <= 5 {
					t.Errorf("request %d %+v: the edge served it from %s at %v hops, the simulator from %s at %v",
						k, reqs[k], live, liveHops, source, hops)
				}
			}
		case (live == obs.SourceReplica) != (source == obs.SourceReplica):
			t.Fatalf("request %d %+v: the edge served it from %s, the simulator from %s", k, reqs[k], live, source)
		case live != source:
			hitMiss++
		}
	}
	if mismatched > 0 {
		t.Errorf("%d of %d requests served remotely on both sides differ in source or hops", mismatched, compared)
	}
	t.Logf("%d requests served remotely on both sides compared; %d differ between a cache hit and a miss; %d peer fetches",
		compared, hitMiss, peerFetches)
}
