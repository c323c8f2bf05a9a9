package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// gridConfig is a trimmed run for the determinism grids: large enough to
// exercise evictions and every dispatch arm, small enough to run the
// full grid in well under a second.
func gridConfig(useCache bool) Config {
	cfg := fastConfig(useCache)
	cfg.Requests = 20000
	cfg.Warmup = 8000
	return cfg
}

// hybridPlacementFor builds the Figure 2 placement the parallel tests
// simulate against (it leaves both replicas and cache space in play).
func hybridPlacementFor(sc *scenario.Scenario) *core.Placement {
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		panic(err)
	}
	return res.Placement
}

func requireIdentical(t *testing.T, label string, seq, par *Metrics) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("%s: parallel metrics differ from sequential\nseq: %+v\npar: %+v", label, seq, par)
	}
}

// TestRunParallelMatchesRun is the tentpole determinism guarantee:
// RunParallel produces bit-identical Metrics — counters, per-server
// arrays, means (float summation order) and ResponseTimesMs order — for
// every seed and worker count.
func TestRunParallelMatchesRun(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		sc := smallScenario(seed, 0)
		p := hybridPlacementFor(sc)
		cfg := gridConfig(true)
		seq, err := Run(context.Background(), sc, p, cfg, xrand.New(seed*100+9))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 3, 8} {
			cfgP := cfg
			cfgP.Parallelism = par
			got, err := RunParallel(context.Background(), sc, p, cfgP, xrand.New(seed*100+9))
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("seed=%d parallelism=%d", seed, par), seq, got)
		}
	}
}

// TestRunParallelMatchesRunAllPolicies repeats the check across every
// cache replacement policy and the no-cache (pure replication) path.
func TestRunParallelMatchesRunAllPolicies(t *testing.T) {
	sc := smallScenario(4, 0)
	p := hybridPlacementFor(sc)
	for _, pol := range []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU, cache.PolicyDelayedLRU} {
		cfg := gridConfig(true)
		cfg.Policy = pol
		seq, err := Run(context.Background(), sc, p, cfg, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallelism = 4
		got, err := RunParallel(context.Background(), sc, p, cfg, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, string(pol), seq, got)
	}

	cfg := gridConfig(false) // pure replication: no caches at all
	seq, err := Run(context.Background(), sc, p, cfg, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	got, err := RunParallel(context.Background(), sc, p, cfg, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "no-cache", seq, got)
}

// TestRunParallelMatchesRunLambda covers the λ (uncacheable/stale)
// bypass arm under strong consistency.
func TestRunParallelMatchesRunLambda(t *testing.T) {
	sc := smallScenario(5, 0.1)
	p := hybridPlacementFor(sc)
	cfg := gridConfig(true)
	seq, err := Run(context.Background(), sc, p, cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	got, err := RunParallel(context.Background(), sc, p, cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "lambda=0.1", seq, got)
}

// TestRunParallelTraceAndRegistry asserts the observability outputs are
// byte-identical too: the JSONL span trace (span order and IDs) and
// the metrics registry snapshot.
func TestRunParallelTraceAndRegistry(t *testing.T) {
	sc := smallScenario(6, 0)
	p := hybridPlacementFor(sc)

	run := func(parallelism int) (string, string) {
		var traceBuf bytes.Buffer
		reg := obs.NewRegistry()
		cfg := gridConfig(true)
		cfg.Requests = 5000
		cfg.Warmup = 2000
		cfg.Tracer = obs.NewTracer(&traceBuf)
		cfg.Metrics = reg
		cfg.Parallelism = parallelism
		var err error
		if parallelism == 0 {
			_, err = Run(context.Background(), sc, p, cfg, xrand.New(33))
		} else {
			_, err = RunParallel(context.Background(), sc, p, cfg, xrand.New(33))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		var promBuf bytes.Buffer
		if err := reg.WritePrometheus(&promBuf); err != nil {
			t.Fatal(err)
		}
		return traceBuf.String(), promBuf.String()
	}

	seqTrace, seqProm := run(0)
	parTrace, parProm := run(4)
	if seqTrace != parTrace {
		t.Errorf("JSONL traces differ (%d vs %d bytes)", len(seqTrace), len(parTrace))
	}
	if seqProm != parProm {
		t.Errorf("registry snapshots differ:\nseq:\n%s\npar:\n%s", seqProm, parProm)
	}
}

// TestRunSourceParallelExhausted asserts the parallel runner reports the
// same exhaustion error as the sequential one.
func TestRunSourceParallelExhausted(t *testing.T) {
	sc := smallScenario(8, 0)
	p := hybridPlacementFor(sc)
	cfg := gridConfig(true)
	cfg.Requests = 1000
	cfg.Warmup = 0

	mk := func() Source {
		reqs := make([]workload.Request, 100)
		stream := sc.Stream(xrand.New(3))
		for i := range reqs {
			reqs[i] = stream.Next()
		}
		return &sliceSource{reqs: reqs}
	}
	_, seqErr := RunSource(context.Background(), sc, p, cfg, mk())
	cfg.Parallelism = 4
	_, parErr := RunSourceParallel(context.Background(), sc, p, cfg, mk())
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected exhaustion errors, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error texts differ:\nseq: %v\npar: %v", seqErr, parErr)
	}
}

// TestRunSourceRejectsUnknownServer: a request naming a server the
// scenario does not have — a trace recorded for a larger system — is an
// error from either runner, raised when it is drawn, not an index panic.
// A request for an unknown site at a real server is still counted.
func TestRunSourceRejectsUnknownServer(t *testing.T) {
	sc := smallScenario(8, 0)
	p := hybridPlacementFor(sc)
	n := sc.Sys.N()
	cfg := gridConfig(true)
	cfg.Requests, cfg.Warmup = 6000, 1000
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
		for _, bad := range []workload.Request{
			{Server: n, Site: 0, Object: 1, Cacheable: true},
			{Server: -1, Site: 0, Object: 1, Cacheable: true},
			{Server: 1 << 40, Site: 0, Object: 1, Cacheable: true},
			{Server: n, Site: -1, Object: 1, Cacheable: true},
		} {
			want := fmt.Sprintf("sim: request %d names server %d of %d", at, bad.Server, n)
			if _, err := RunSourceParallel(context.Background(), sc, p, cfg, mk(bad)); err == nil || err.Error() != want {
				t.Errorf("parallelism %d, server %d: error %v, want %q", par, bad.Server, err, want)
			}
		}
		m, err := RunSourceParallel(context.Background(), sc, p, cfg, mk(workload.Request{Server: 1, Site: sc.Sys.M(), Object: 1}))
		if err != nil || m.UnknownSite != 1 {
			t.Errorf("parallelism %d, unknown site: error %v, metrics %+v", par, err, m)
		}
	}
}

// TestParallelismValidation covers the config surface: negative values
// are rejected, and the crash runner refuses explicit parallelism (a
// dead server's clients move to another shard's server).
func TestParallelismValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if cfg.Validate() == nil {
		t.Error("negative Parallelism accepted")
	}

	sc := smallScenario(9, 0)
	p := hybridPlacementFor(sc)
	fcfg := gridConfig(true)
	fcfg.Parallelism = 4
	_, err := RunWithCrashes(context.Background(), sc, p, fcfg, nil, nil, xrand.New(1))
	if err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Errorf("RunWithCrashes with Parallelism=4: got %v, want explicit sequential-only error", err)
	}
	// Parallelism 0 (auto) must keep working: the crash runner simply
	// stays sequential.
	fcfg.Parallelism = 0
	if _, err := RunWithCrashes(context.Background(), sc, p, fcfg, nil, nil, xrand.New(1)); err != nil {
		t.Errorf("RunWithCrashes with Parallelism=0: %v", err)
	}
}

// TestRunParallelAllocatesAtSetUpOnly bounds the allocations of a
// 200 000-request parallel run: shards, blocks and helpers, but nothing
// per block handed over — a run forty times shorter allocates as much.
func TestRunParallelAllocatesAtSetUpOnly(t *testing.T) {
	sc := smallScenario(1, 0)
	p := hybridPlacementFor(sc)
	allocs := func(requests int) float64 {
		cfg := fastConfig(true)
		cfg.Requests, cfg.Warmup, cfg.Parallelism, cfg.KeepResponseTimes = requests, 50000, 2, false
		return testing.AllocsPerRun(3, func() {
			if _, err := RunParallel(context.Background(), sc, p, cfg, xrand.New(9)); err != nil {
				t.Fatal(err)
			}
		})
	}
	long, short := allocs(200000), allocs(5000)
	t.Logf("allocations: %.0f for 200000 requests, %.0f for 5000", long, short)
	// With the warm-up, the long run is 17 shared blocks and the short
	// one 5, so one allocation per block would add 12: a slack of 4
	// allows for the runtime's own noise and still catches that.
	if long > short+4 {
		t.Errorf("a 200000-request run allocates %.0f times, a 5000-request run %.0f: the loop allocates per block", long, short)
	}
}

// cancelSource cancels its run's context at its at-th draw.
type cancelSource struct {
	src    Source
	n, at  int
	cancel context.CancelFunc
}

func (c *cancelSource) Next() (workload.Request, bool) {
	if c.n++; c.n == c.at {
		c.cancel()
	}
	return c.src.Next()
}

// TestRunParallelStopsMidRun: a run cancelled, or whose source runs dry,
// in the first or the second block — while helpers step the block before
// — returns context.Canceled or the draw error, and leaves no helper
// goroutine behind.
func TestRunParallelStopsMidRun(t *testing.T) {
	sc := smallScenario(8, 0)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	cfg.Warmup, cfg.Requests = sharedBlockLen, 2*sharedBlockLen
	total := cfg.Warmup + cfg.Requests
	stream := func() Source { return streamSource{sc.Stream(xrand.New(5))} }
	base := runtime.NumGoroutine()
	// The runner returns once its helpers are done; they exit a moment later.
	settled := func() int {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	for _, par := range []int{2, 8} {
		cfg.Parallelism = par
		for _, at := range []int{100, sharedBlockLen + 100} {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := RunSourceParallel(ctx, sc, p, cfg, &cancelSource{src: stream(), at: at, cancel: cancel})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("parallelism %d, cancelled at draw %d: error %v, want context.Canceled", par, at, err)
			}
			if n := settled(); n > base {
				t.Errorf("parallelism %d, cancelled at draw %d: %d goroutines, %d before", par, at, n, base)
			}

			reqs := make([]workload.Request, at)
			src := stream()
			for i := range reqs {
				reqs[i], _ = src.Next()
			}
			_, err = RunSourceParallel(context.Background(), sc, p, cfg, &sliceSource{reqs: reqs})
			want := fmt.Sprintf("sim: request source exhausted after %d of %d requests", at, total)
			if err == nil || err.Error() != want {
				t.Errorf("parallelism %d, source of %d: error %v, want %q", par, at, err, want)
			}
			if n := settled(); n > base {
				t.Errorf("parallelism %d, source of %d: %d goroutines, %d before", par, at, n, base)
			}
		}
	}
}
