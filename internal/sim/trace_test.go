package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// tracedConfig is fastConfig with span tracing into a fresh buffer.
func tracedConfig(buf *bytes.Buffer) Config {
	cfg := fastConfig(true)
	cfg.Requests = 3000
	cfg.Warmup = 1000
	cfg.Tracer = obs.NewTracer(buf)
	return cfg
}

func TestSimSpansVirtualTimeSchema(t *testing.T) {
	sc := smallScenario(1, 0.05)
	p := hybridPlacementFor(sc)
	var buf bytes.Buffer
	cfg := tracedConfig(&buf)
	m, err := Run(context.Background(), sc, p, cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	serves, upstreams := 0, 0
	for _, s := range spans {
		if err := obs.ValidateSpan(s); err != nil {
			t.Fatalf("invalid span: %v", err)
		}
		switch s.Kind {
		case obs.SpanServe:
			serves++
			if s.Parent != "" {
				t.Fatalf("sim serve span %s has a parent", s.Span)
			}
		case obs.SpanUpstream:
			upstreams++
			if s.Parent == "" {
				t.Fatalf("sim upstream span %s has no parent", s.Span)
			}
		default:
			t.Fatalf("unexpected sim span kind %q", s.Kind)
		}
	}
	if serves != m.Requests {
		t.Fatalf("%d serve spans for %d measured requests", serves, m.Requests)
	}
	// Every redirected request (counted by destination) grew exactly one
	// upstream child.
	if want := int(m.OriginFetch + m.RemoteServer); upstreams != want {
		t.Fatalf("%d upstream spans for %d redirected requests", upstreams, want)
	}
	// Virtual time: request k's serve span starts at k ms.
	if spans[0].StartUs != 0 {
		t.Fatalf("first serve span starts at %d µs, want 0", spans[0].StartUs)
	}
}

func TestSimSpansParallelIdentical(t *testing.T) {
	sc := smallScenario(2, 0.05)
	p := hybridPlacementFor(sc)

	var seq bytes.Buffer
	cfgSeq := tracedConfig(&seq)
	if _, err := Run(context.Background(), sc, p, cfgSeq, xrand.New(11)); err != nil {
		t.Fatal(err)
	}
	if err := cfgSeq.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var par bytes.Buffer
	cfgPar := tracedConfig(&par)
	cfgPar.Parallelism = 4
	if _, err := RunParallel(context.Background(), sc, p, cfgPar, xrand.New(11)); err != nil {
		t.Fatal(err)
	}
	if err := cfgPar.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("parallel traced run is not byte-identical to sequential")
	}
}

// TestSimTraceBytesPinned pins the JSONL a traced RunSource writes —
// the spans of three blocks, the warm-up ending inside the first and the
// last one partial — to a fixed SHA-256. Both runners fold through the
// same code, so comparing them with each other cannot catch a change to
// it. The run is at λ = 0.05, so 430 serve spans carry cacheable=0.
func TestSimTraceBytesPinned(t *testing.T) {
	sc := smallScenario(2, 0.05)
	p := hybridPlacementFor(sc)
	var buf bytes.Buffer
	cfg := tracedConfig(&buf)
	cfg.Requests, cfg.Warmup = 9000, 1000
	if _, err := Run(context.Background(), sc, p, cfg, xrand.New(11)); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "402f32eee7d644aa6ea72b00a2c954c7656bffb30688c60062228d8e6a578a3c"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("trace digest %s, want %s (%d bytes)", got, want, buf.Len())
	}
}

// TestStepDisabledTracingZeroAllocs pins the disabled-span path: with no
// tracer the measured hot loop (shard.step plus the span guard) must not
// allocate. Guards the satellite acceptance criterion alongside
// BenchmarkStepDisabledTracing.
func TestStepDisabledTracingZeroAllocs(t *testing.T) {
	sc := smallScenario(3, 0)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	sh := newShard(sc, p, &cfg)
	stream := sc.Stream(xrand.New(5))
	// Warm the caches so steady-state stepping dominates.
	for i := 0; i < 20000; i++ {
		sh.step(stream.Next(), false)
	}
	reqs := make([]workload.Request, 1024)
	for i := range reqs {
		reqs[i] = stream.Next()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, req := range reqs {
			hops, source := sh.step(req, true)
			if cfg.Tracer != nil {
				emitSimSpans(&cfg, 0, &req, source, hops, 0)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-tracing hot loop allocates %.1f per 1024 steps, want 0", allocs)
	}
}

// BenchmarkStepDisabledTracing measures the per-request cost of the hot
// loop with tracing compiled in but disabled (run with -benchmem: the
// criterion is 0 allocs/op).
func BenchmarkStepDisabledTracing(b *testing.B) {
	sc := smallScenario(3, 0)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	sh := newShard(sc, p, &cfg)
	stream := sc.Stream(xrand.New(5))
	for i := 0; i < 20000; i++ {
		sh.step(stream.Next(), false)
	}
	reqs := make([]workload.Request, 4096)
	for i := range reqs {
		reqs[i] = stream.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		hops, source := sh.step(req, true)
		if cfg.Tracer != nil {
			emitSimSpans(&cfg, 0, &req, source, hops, 0)
		}
	}
}
