package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// crashRun is RunWithCrashes without a deadline.
func crashRun(sc *scenario.Scenario, p *core.Placement, cfg Config, servers, origins []int, r *xrand.Source) (*FailureMetrics, error) {
	return RunWithCrashes(context.Background(), sc, p, cfg, servers, origins, r)
}

func TestNoFailuresMatchesHealthyAccounting(t *testing.T) {
	sc := smallScenario(31, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	cfg.KeepResponseTimes = false
	m, err := crashRun(sc, p, cfg, nil, nil, xrand.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if m.Unavailable != 0 || m.Rerouted != 0 || m.StaleRisk != 0 {
		t.Fatalf("healthy run reported failures: %+v", *m)
	}
	if m.Requests != cfg.Requests {
		t.Fatalf("measured %d requests", m.Requests)
	}
}

func TestFailedServerReroutes(t *testing.T) {
	sc := smallScenario(33, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	m, err := crashRun(sc, p, cfg, []int{0, 1}, nil, xrand.New(34))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rerouted == 0 {
		t.Fatal("no requests rerouted despite failed first-hop servers")
	}
	if m.Unavailable != 0 {
		t.Fatal("server failures alone should not make content unavailable (origins alive)")
	}
}

func TestFailedOriginUnavailabilityOrdering(t *testing.T) {
	// The paper's availability argument: with dead origins, replication
	// keeps replicated sites fully available while caching can only
	// serve what happens to be cached. Unavailability(replication+cache
	// hybrid) <= Unavailability(pure caching).
	sc := smallScenario(35, 0)
	dead := xrand.New(36).Perm(sc.Sys.M())[:3]

	hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	pure := placement.None(sc.Sys)

	cfg := fastConfig(true)
	mHyb, err := crashRun(sc, hyb.Placement, cfg, nil, dead, xrand.New(37))
	if err != nil {
		t.Fatal(err)
	}
	mPure, err := crashRun(sc, pure.Placement, cfg, nil, dead, xrand.New(37))
	if err != nil {
		t.Fatal(err)
	}
	if mPure.Unavailable == 0 {
		t.Fatal("pure caching fully available with dead origins (suspicious)")
	}
	if mHyb.Unavailability() > mPure.Unavailability() {
		t.Errorf("hybrid unavailability %.4f worse than caching %.4f",
			mHyb.Unavailability(), mPure.Unavailability())
	}
	// Cached copies of dead-origin sites are served at stale risk.
	if mPure.StaleRisk == 0 {
		t.Error("caching never served dead-origin content from cache")
	}
}

// TestAllServersFailedAllUnavailable pins the total outage: no server is
// left to accept a request, so every measured request is rerouted and
// unavailable, and the run still completes.
func TestAllServersFailedAllUnavailable(t *testing.T) {
	sc := smallScenario(39, 0)
	p := core.NewPlacement(sc.Sys)
	all := make([]int, sc.Sys.N())
	for i := range all {
		all[i] = i
	}
	cfg := fastConfig(true)
	m, err := crashRun(sc, p, cfg, all, nil, xrand.New(40))
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != cfg.Requests || m.Unavailable != int64(m.Requests) || m.Rerouted != int64(m.Requests) {
		t.Fatalf("total outage: %+v", *m)
	}
	if m.MeanRTMs != 0 || m.LocalReplica+m.CacheHits+m.CacheMisses != 0 {
		t.Fatalf("total outage served requests: %+v", *m)
	}
}

// staticFailuresOracle is the crash-set reference loop, with caches and
// routing tables of its own, which RunWithCrashes must equal. Unlike RunWithCrashes it rejects the
// total outage rather than counting every request unavailable.
func staticFailuresOracle(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, servers, origins []int, r *xrand.Source) (*FailureMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism > 1 {
		// Unlike Run, this path is not shardable by server: the
		// warm-then-crash order and the client re-dispatch to
		// surviving servers make it a time-ordered global event
		// stream. Reject rather than silently interleave wrongly.
		return nil, fmt.Errorf("sim: the crash oracle is inherently sequential (Parallelism = %d)", cfg.Parallelism)
	}
	if p.System() != sc.Sys {
		return nil, fmt.Errorf("sim: placement belongs to a different system")
	}
	n, mSites := sc.Sys.N(), sc.Sys.M()
	downServer := make([]bool, n)
	for _, s := range servers {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("sim: failed server %d out of range", s)
		}
		downServer[s] = true
	}
	alive := 0
	for i := 0; i < n; i++ {
		if !downServer[i] {
			alive++
		}
	}
	if alive == 0 {
		return nil, fmt.Errorf("sim: all servers failed")
	}
	downOrigin := make([]bool, mSites)
	for _, o := range origins {
		if o < 0 || o >= mSites {
			return nil, fmt.Errorf("sim: failed origin %d out of range", o)
		}
		downOrigin[o] = true
	}

	// handler[i]: the surviving server that takes over server i's
	// clients (itself when alive), plus the detour cost.
	handler := make([]int, n)
	detour := make([]float64, n)
	for i := 0; i < n; i++ {
		if !downServer[i] {
			handler[i] = i
			continue
		}
		best, bestCost := -1, math.Inf(1)
		for k := 0; k < n; k++ {
			if !downServer[k] && sc.Sys.CostServer[i][k] < bestCost {
				best, bestCost = k, sc.Sys.CostServer[i][k]
			}
		}
		handler[i] = best
		detour[i] = bestCost
	}

	// nearest[i][j]: cheapest surviving source of site j from server i
	// (+Inf when none survives).
	nearest := make([][]float64, n)
	for i := 0; i < n; i++ {
		nearest[i] = make([]float64, mSites)
		for j := 0; j < mSites; j++ {
			cost := math.Inf(1)
			if !downOrigin[j] {
				cost = sc.Sys.CostOrigin[i][j]
			}
			for k := 0; k < n; k++ {
				if !downServer[k] && p.Has(k, j) && sc.Sys.CostServer[i][k] < cost {
					cost = sc.Sys.CostServer[i][k]
				}
			}
			nearest[i][j] = cost
		}
	}

	var caches []cache.Cache
	if cfg.UseCache {
		caches = make([]cache.Cache, n)
		for i := 0; i < n; i++ {
			caches[i] = cache.New(cfg.Policy, p.Free(i))
		}
	}

	m := &FailureMetrics{}
	stream := sc.Stream(r)
	var totalRT float64
	total := cfg.Warmup + cfg.Requests
	for t := 0; t < total; t++ {
		if t%cancelEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		req := stream.Next()
		measured := t >= cfg.Warmup
		origin, j := req.Server, req.Site

		if !measured {
			// Warm-up phase: the system is healthy; use the normal
			// dispatch so caches reach their steady state.
			if !p.Has(origin, j) && caches != nil && req.Cacheable {
				key := cache.Key{Site: j, Object: req.Object}
				if !caches[origin].Get(key) {
					caches[origin].Put(key, sc.Work.Size(j, req.Object))
				}
			}
			continue
		}

		i := handler[origin]
		firstHop := cfg.FirstHopMs + cfg.PerHopMs*detour[origin]
		m.Requests++
		if i != origin {
			m.Rerouted++
		}

		var rt float64
		served := true
		switch {
		case p.Has(i, j):
			rt = firstHop
			m.LocalReplica++
		case caches != nil && req.Cacheable && caches[i].Get(cache.Key{Site: j, Object: req.Object}):
			rt = firstHop
			m.CacheHits++
			if downOrigin[j] {
				m.StaleRisk++
			}
		case math.IsInf(nearest[i][j], 1):
			served = false
			m.Unavailable++
		default:
			rt = firstHop + cfg.PerHopMs*nearest[i][j]
			if caches != nil && req.Cacheable {
				caches[i].Put(cache.Key{Site: j, Object: req.Object}, sc.Work.Size(j, req.Object))
				m.CacheMisses++
			}
		}
		if served {
			totalRT += rt
		}
	}
	if availCount := int64(m.Requests) - m.Unavailable; availCount > 0 {
		m.MeanRTMs = totalRT / float64(availCount)
	}
	return m, nil
}

// The tests below pin RunWithCrashes on a crash set that dies at the
// measurement boundary.

func TestScheduleDeterministicForFixedSeed(t *testing.T) {
	sc := smallScenario(51, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	a, err := crashRun(sc, p, cfg, []int{0}, []int{1}, xrand.New(52))
	if err != nil {
		t.Fatal(err)
	}
	b, err := crashRun(sc, p, cfg, []int{0}, []int{1}, xrand.New(52))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", *a, *b)
	}
	if a.Rerouted == 0 || a.Unavailable == 0 {
		t.Fatalf("a dead server and a dead origin with no replicas left no trace: %+v", *a)
	}
}

// TestScheduleDegenerateReproducesRunWithFailures pins RunWithCrashes
// to the crash-set reference loop, staticFailuresOracle,
// with the cache on and off.
func TestScheduleDegenerateReproducesRunWithFailures(t *testing.T) {
	sc := smallScenario(53, 0)
	hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, useCache := range []bool{true, false} {
		cfg := fastConfig(useCache)
		cfg.KeepResponseTimes = false
		r := xrand.New(54)
		servers, origins := r.Perm(sc.Sys.N())[:2], r.Perm(sc.Sys.M())[:3]
		want, err := staticFailuresOracle(context.Background(), sc, hyb.Placement, cfg, servers, origins, xrand.New(55))
		if err != nil {
			t.Fatal(err)
		}
		got, err := crashRun(sc, hyb.Placement, cfg, servers, origins, xrand.New(55))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("useCache=%v: crash runner diverged from the static oracle:\ncrashes: %+v\nstatic:  %+v",
				useCache, *got, *want)
		}
	}
}

// TestScheduleHealthyMatchesEmptySchedule pins RunWithCrashes, with
// nothing crashed, to staticFailuresOracle and to Run: it must reproduce
// Run's mean response time and source counters bit for bit.
func TestScheduleHealthyMatchesEmptySchedule(t *testing.T) {
	for _, lambda := range []float64{0, 0.1} {
		sc := smallScenario(3, lambda)
		hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
			Specs:          sc.Work.Specs(),
			AvgObjectBytes: sc.Work.AvgObjectBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := hyb.Placement
		for _, useCache := range []bool{true, false} {
			t.Run(fmt.Sprintf("lambda=%v/cache=%v", lambda, useCache), func(t *testing.T) {
				cfg := fastConfig(useCache)
				cfg.KeepResponseTimes = false
				want, err := staticFailuresOracle(context.Background(), sc, p, cfg, nil, nil, xrand.New(9))
				if err != nil {
					t.Fatal(err)
				}
				got, err := crashRun(sc, p, cfg, nil, nil, xrand.New(9))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("no crashes diverged from the healthy static oracle:\n%+v\n%+v", *got, *want)
				}
				run, err := Run(context.Background(), sc, p, cfg, xrand.New(9))
				if err != nil {
					t.Fatal(err)
				}
				if got.MeanRTMs != run.MeanRTMs || got.LocalReplica != run.LocalReplica ||
					got.CacheHits != run.CacheHits || got.CacheMisses != run.CacheMisses {
					t.Fatalf("no crashes diverged from Run: mean %v local %d hits %d misses %d, Run: mean %v local %d hits %d misses %d",
						got.MeanRTMs, got.LocalReplica, got.CacheHits, got.CacheMisses,
						run.MeanRTMs, run.LocalReplica, run.CacheHits, run.CacheMisses)
				}
				if got.LocalReplica == 0 {
					t.Fatal("hybrid placement served nothing from a local replica")
				}
			})
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	sc := smallScenario(63, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)

	for _, c := range []struct {
		name             string
		servers, origins []int
	}{
		{"server id N", []int{sc.Sys.N()}, nil},
		{"negative server id", []int{-1}, nil},
		{"origin id M", nil, []int{sc.Sys.M()}},
		{"negative origin id", nil, []int{-1}},
	} {
		if _, err := crashRun(sc, p, cfg, c.servers, c.origins, xrand.New(1)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	par := cfg
	par.Parallelism = 4
	if _, err := crashRun(sc, p, par, nil, nil, xrand.New(1)); err == nil {
		t.Fatal("parallel crash run accepted")
	}
}

func TestScheduleCancellation(t *testing.T) {
	sc := smallScenario(65, 0)
	p := core.NewPlacement(sc.Sys)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWithCrashes(ctx, sc, p, fastConfig(true), nil, nil, xrand.New(66)); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, sc, p, fastConfig(true), xrand.New(66)); err != context.Canceled {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	par := fastConfig(true)
	par.Parallelism = 4
	if _, err := RunParallel(ctx, sc, p, par, xrand.New(66)); err != context.Canceled {
		t.Fatalf("cancelled RunParallel returned %v, want context.Canceled", err)
	}
}

// FuzzCrashRunMatchesOracle: for any scenario seed, λ ∈ {0, 0.1},
// replacement policy, cache on or off and crash set — up to every server
// and every origin — RunWithCrashes returns what staticFailuresOracle
// returns. The oracle rejects the total outage, where every measured
// request is rerouted and unavailable.
//
// flags: bit 0 λ = 0.1, bit 1 caches off, bits 2–4 the policy. servers
// and origins are bit sets over the 8 servers and 8 sites.
func FuzzCrashRunMatchesOracle(f *testing.F) {
	policies := []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU, cache.PolicyDelayedLRU, cache.PolicyRandom}
	f.Add(uint8(1), uint8(0), uint8(0b11), uint8(0b101))
	f.Add(uint8(2), uint8(1|2<<2), uint8(0b1000_0000), uint8(0xff))
	f.Add(uint8(3), uint8(2|1<<2), uint8(0b0110), uint8(0))
	f.Add(uint8(4), uint8(1|4<<2), uint8(0xff), uint8(0b1))
	f.Fuzz(func(t *testing.T, seed, flags, servers, origins uint8) {
		lambda := 0.0
		if flags&1 != 0 {
			lambda = 0.1
		}
		sc := smallScenario(1+uint64(seed)%12, lambda)
		p := hybridPlacementFor(sc)
		cfg := fastConfig(flags&2 == 0)
		cfg.Warmup, cfg.Requests = 4000, 8000
		cfg.KeepResponseTimes = false
		cfg.Policy = policies[int(flags>>2&7)%len(policies)]
		var dead, gone []int
		for k := 0; k < 8; k++ {
			if servers>>k&1 != 0 {
				dead = append(dead, k)
			}
			if origins>>k&1 != 0 {
				gone = append(gone, k)
			}
		}
		got, err := crashRun(sc, p, cfg, dead, gone, xrand.New(uint64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want := &FailureMetrics{Requests: cfg.Requests, Unavailable: int64(cfg.Requests), Rerouted: int64(cfg.Requests)}
		if len(dead) < sc.Sys.N() {
			if want, err = staticFailuresOracle(context.Background(), sc, p, cfg, dead, gone, xrand.New(uint64(seed))); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crash run diverged from the static oracle:\ncrashes: %+v\nstatic:  %+v", *got, *want)
		}
	})
}
