package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

func TestNoFailuresMatchesHealthyAccounting(t *testing.T) {
	sc := smallScenario(31, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	cfg.KeepResponseTimes = false
	m, err := RunWithFailures(context.Background(), sc, p, cfg, FailureSet{}, xrand.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if m.Unavailable != 0 || m.Rerouted != 0 || m.StaleRisk != 0 {
		t.Fatalf("healthy run reported failures: %+v", m)
	}
	if m.Requests != cfg.Requests {
		t.Fatalf("measured %d requests", m.Requests)
	}
}

func TestFailedServerReroutes(t *testing.T) {
	sc := smallScenario(33, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	m, err := RunWithFailures(context.Background(), sc, p, cfg, FailureSet{Servers: []int{0, 1}}, xrand.New(34))
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
	fail := RandomFailures(sc, 0, 3, xrand.New(36))

	hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	pure := placement.None(sc.Sys)

	cfg := fastConfig(true)
	mHyb, err := RunWithFailures(context.Background(), sc, hyb.Placement, cfg, fail, xrand.New(37))
	if err != nil {
		t.Fatal(err)
	}
	mPure, err := RunWithFailures(context.Background(), sc, pure.Placement, cfg, fail, xrand.New(37))
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

func TestAllServersFailedRejected(t *testing.T) {
	sc := smallScenario(39, 0)
	p := core.NewPlacement(sc.Sys)
	all := make([]int, sc.Sys.N())
	for i := range all {
		all[i] = i
	}
	if _, err := RunWithFailures(context.Background(), sc, p, fastConfig(true), FailureSet{Servers: all}, xrand.New(40)); err == nil {
		t.Fatal("total outage accepted")
	}
}

func TestFailureSetValidation(t *testing.T) {
	sc := smallScenario(41, 0)
	p := core.NewPlacement(sc.Sys)
	if _, err := RunWithFailures(context.Background(), sc, p, fastConfig(true), FailureSet{Servers: []int{-1}}, xrand.New(1)); err == nil {
		t.Fatal("negative server index accepted")
	}
	if _, err := RunWithFailures(context.Background(), sc, p, fastConfig(true), FailureSet{Origins: []int{999}}, xrand.New(1)); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
}

func TestRandomFailuresDistinct(t *testing.T) {
	sc := smallScenario(43, 0)
	f := RandomFailures(sc, 3, 4, xrand.New(44))
	if len(f.Servers) != 3 || len(f.Origins) != 4 {
		t.Fatalf("drew %d servers, %d origins", len(f.Servers), len(f.Origins))
	}
	seen := map[int]bool{}
	for _, s := range f.Servers {
		if seen[s] {
			t.Fatal("duplicate failed server")
		}
		seen[s] = true
	}
}

// staticFailuresOracle is the replay loop RunWithFailures had before it
// became RunWithSchedule over fault.Crashes, kept verbatim as the
// reference the schedule tests compare against: failures are applied
// once, at the measurement boundary, with no event machinery.
func staticFailuresOracle(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, fail FailureSet, r *xrand.Source) (*FailureMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism > 1 {
		// Unlike Run, this path is not shardable by server: the
		// warm-then-fail schedule and the client re-dispatch to
		// surviving servers make it a time-ordered global event
		// stream. Reject rather than silently interleave wrongly.
		return nil, fmt.Errorf("sim: the static failure model is inherently sequential (Parallelism = %d)", cfg.Parallelism)
	}
	if p.System() != sc.Sys {
		return nil, fmt.Errorf("sim: placement belongs to a different system")
	}
	n, mSites := sc.Sys.N(), sc.Sys.M()
	downServer := make([]bool, n)
	for _, s := range fail.Servers {
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
	for _, o := range fail.Origins {
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
