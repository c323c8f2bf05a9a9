package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestSpanReplayMatchesRun: a traced run at Warmup 0, replayed through
// RunSource from its own span trace, returns the run's Metrics exactly —
// on a λ > 0 static catalog (cacheable=0 attrs), a dynamic catalog
// (generation and perished attrs) and the parallel runner.
func TestSpanReplayMatchesRun(t *testing.T) {
	sc := smallScenario(4, 0.05)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	cfg.Requests, cfg.Warmup = 20000, 0
	dynamic := func() Source {
		return EndlessSource{S: workload.MustNewDynamicStream(sc.Work, dynConfig(), xrand.New(11))}
	}
	for _, tc := range []struct {
		name        string
		parallelism int
		src         func() Source
	}{
		{"static", 1, func() Source { return streamSource{sc.Stream(xrand.New(7))} }},
		{"dynamic", 1, dynamic},
		{"parallel", 4, dynamic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var trace bytes.Buffer
			traced := cfg
			traced.Parallelism = tc.parallelism
			traced.Tracer = obs.NewTracer(&trace)
			want, err := RunSourceParallel(context.Background(), sc, p, traced, tc.src())
			if err != nil {
				t.Fatal(err)
			}
			if err := traced.Tracer.Flush(); err != nil {
				t.Fatal(err)
			}
			src, err := SpanSource(&trace)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSource(context.Background(), sc, p, cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replay differs from the traced run:\n got: %+v\nwant: %+v", got, want)
			}
			if want.Bypass == 0 || tc.name != "static" && (want.Perished == 0 || want.StaleReplica == 0) {
				t.Fatalf("the run exercised no uncacheable, perished or stale request: %+v", want)
			}
			if _, ok := src.Next(); ok {
				t.Fatal("the replay has requests left over")
			}
		})
	}
}

// spanLine is one JSONL span record of a hand-written trace.
func spanLine(trace, span, parent, kind string, edge, site, object int, startUs int64, attrs string) string {
	if attrs == "" {
		attrs = "{}"
	}
	return fmt.Sprintf(`{"trace":%q,"span":%q,"parent":%q,"kind":%q,"edge":%d,"site":%d,"object":%d,"start_us":%d,"dur_us":1,"attrs":%s}`+"\n",
		trace, span, parent, kind, edge, site, object, startUs, attrs)
}

const (
	traceA = "0000000000000000000000000000000a"
	traceB = "0000000000000000000000000000000b"
)

// TestSpanSourceKeepsClientRequests: roots and children of a client span
// are requests, in start order with ties in file order; an edge's
// internal fetch (a serve span under an upstream span) and every other
// kind are not.
func TestSpanSourceKeepsClientRequests(t *testing.T) {
	trace := spanLine(traceA, "0000000000000001", "", obs.SpanServe, 0, 1, 5, 30, `{"source":"peer"}`) +
		spanLine(traceA, "0000000000000002", "0000000000000001", obs.SpanUpstream, 0, 1, 5, 31, "") +
		spanLine(traceA, "0000000000000003", "0000000000000002", obs.SpanServe, 2, 1, 5, 32, `{"source":"replica"}`) +
		spanLine(traceB, "0000000000000004", "", obs.SpanClient, -1, 0, 0, 10, "") +
		spanLine(traceB, "0000000000000005", "0000000000000004", obs.SpanServe, 1, 3, 7, 11, `{"cacheable":"0","generation":"2","perished":"1"}`) +
		spanLine(traceB, "0000000000000006", "", obs.SpanServe, 3, 2, 9, 30, "") +
		spanLine(traceB, "0000000000000007", "", obs.SpanOrigin, 2, 2, 9, 5, "")
	src, err := SpanSource(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.Request{
		{Server: 1, Site: 3, Object: 7, Generation: 2, Perished: true},
		{Server: 0, Site: 1, Object: 5, Cacheable: true},
		{Server: 3, Site: 2, Object: 9, Cacheable: true},
	}
	var got []workload.Request
	for req, ok := src.Next(); ok; req, ok = src.Next() {
		got = append(got, req)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("requests %+v, want %+v", got, want)
	}
}

// TestSpanSourceRejects: a trace that is not spans, or a serve span that
// is not a replayable request, is an error before anything is replayed.
func TestSpanSourceRejects(t *testing.T) {
	good := spanLine(traceA, "0000000000000001", "", obs.SpanServe, 0, 1, 5, 0, "")
	for name, tc := range map[string]struct{ trace, err string }{
		"truncated":      {good[:len(good)/2], "obs: trace record 1"},
		"not a span":     {good + `{"t":1,"server":0}` + "\n", `obs: trace record 2 is not a span`},
		"orphan":         {spanLine(traceA, "0000000000000002", "0000000000000009", obs.SpanServe, 0, 1, 5, 0, ""), "parent 0000000000000009 is not in the trace"},
		"cacheable":      {spanLine(traceA, "0000000000000001", "", obs.SpanServe, 0, 1, 5, 0, `{"cacheable":"no"}`), `cacheable="no", want 0 or 1`},
		"perished":       {spanLine(traceA, "0000000000000001", "", obs.SpanServe, 0, 1, 5, 0, `{"perished":"2"}`), `perished="2", want 0 or 1`},
		"generation":     {spanLine(traceA, "0000000000000001", "", obs.SpanServe, 0, 1, 5, 0, `{"generation":"1.5"}`), `generation="1.5"`},
		"object too big": {strings.Replace(good, `"object":5`, `"object":99999999999999999999`, 1), "obs: trace record 1"},
	} {
		if _, err := SpanSource(strings.NewReader(tc.trace)); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.err)
		}
	}
}

// TestRunSourceRejectsUnknownObject: a request for an object rank outside
// its site's catalog — a trace recorded on a wider catalog — is an error
// from either runner when it is drawn, not an index panic in the cache's
// size lookup. A request for an unknown site is still counted, whatever
// object it names.
func TestRunSourceRejectsUnknownObject(t *testing.T) {
	sc := smallScenario(8, 0)
	p := hybridPlacementFor(sc)
	cfg := gridConfig(true)
	cfg.Requests, cfg.Warmup = 6000, 1000
	// A server that caches site 0 instead of replicating it, so the bad
	// object reaches the cache.
	server := 0
	for p.Has(server, 0) {
		server++
	}
	objects := len(sc.Work.Sites[0].Objects)
	const at = 5000 // in the second block
	mk := func(bad workload.Request) Source {
		reqs := make([]workload.Request, cfg.Warmup+cfg.Requests)
		stream := sc.Stream(xrand.New(3))
		for i := range reqs {
			reqs[i] = stream.Next()
		}
		reqs[at] = bad
		return &sliceSource{reqs: reqs}
	}
	for _, par := range []int{1, 2} {
		cfg.Parallelism = par
		for _, object := range []int{0, -1, objects + 1, objects + 24, 1 << 40} {
			bad := workload.Request{Server: server, Site: 0, Object: object, Cacheable: true}
			want := fmt.Sprintf("sim: request %d names object %d of site 0 (%d objects)", at, object, objects)
			if _, err := RunSourceParallel(context.Background(), sc, p, cfg, mk(bad)); err == nil || err.Error() != want {
				t.Errorf("parallelism %d, object %d: error %v, want %q", par, object, err, want)
			}
		}
		m, err := RunSourceParallel(context.Background(), sc, p, cfg, mk(workload.Request{Server: server, Site: sc.Sys.M(), Object: objects + 1}))
		if err != nil || m.UnknownSite != 1 {
			t.Errorf("parallelism %d, unknown site: error %v, metrics %+v", par, err, m)
		}
	}
}

// FuzzSpanReplay feeds arbitrary bytes through SpanSource — and so
// obs.ReadTrace, which cmd/cdntrace runs on untrusted files — into
// RunSource: the outcome is an error or Metrics, never a panic. Seeds:
// a real dynamic-catalog trace, that trace cut mid-record, and a span
// naming an object past its site's catalog.
func FuzzSpanReplay(f *testing.F) {
	sc := smallScenario(4, 0.05)
	p := hybridPlacementFor(sc)
	var trace bytes.Buffer
	cfg := fastConfig(true)
	cfg.Requests, cfg.Warmup = 40, 0
	cfg.Tracer = obs.NewTracer(&trace)
	stream := workload.MustNewDynamicStream(sc.Work, dynConfig(), xrand.New(11))
	if _, err := RunSource(context.Background(), sc, p, cfg, EndlessSource{S: stream}); err != nil {
		f.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add(trace.Bytes()[:trace.Len()/2])
	f.Add([]byte(spanLine(traceA, "0000000000000001", "", obs.SpanServe, 1, 0, len(sc.Work.Sites[0].Objects)+10, 0, "")))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := SpanSource(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg := fastConfig(true)
		cfg.Requests, cfg.Warmup = max(len(src.(*sliceSource).reqs), 1), 0
		m, err := RunSource(context.Background(), sc, p, cfg, src)
		if err == nil && m.Requests != cfg.Requests {
			t.Fatalf("%d requests measured of %d", m.Requests, cfg.Requests)
		}
	})
}
