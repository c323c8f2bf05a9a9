package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// FailureMetrics aggregates an availability run. The paper motivates
// replication over caching with availability ("a generic caching scheme
// offers no guarantees on content availability", §1); these counters
// quantify it.
type FailureMetrics struct {
	Requests int
	// Unavailable counts requests that no surviving replica, origin or
	// cached copy could serve.
	Unavailable int64
	// StaleRisk counts requests served from a cache whose origin is
	// dead: available, but with no way to validate freshness.
	StaleRisk int64
	// MeanRTMs is the mean response time over *available* requests.
	MeanRTMs float64
	// Rerouted counts requests whose first-hop server was down.
	Rerouted                             int64
	LocalReplica, CacheHits, CacheMisses int64
}

// Unavailability is the fraction of requests that could not be served.
func (m *FailureMetrics) Unavailability() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Unavailable) / float64(m.Requests)
}

// RunWithCrashes replays the workload through the static failure model:
// warm-up runs on healthy dispatch, so the caches reach their steady
// state, then at cfg.Warmup the listed servers and origins die for good
// and only the measured requests see them gone.
//
//   - A dead server's replicas and cache are unreachable; its clients
//     are re-dispatched to the nearest surviving server, paying the
//     detour (Rerouted). With every server dead, each measured request
//     is rerouted and unavailable.
//   - A dead origin's site is reachable only through surviving replicas
//     or, at StaleRisk, cached copies.
//
// The run is a pure function of (scenario, placement, cfg, crash set,
// seed).
func RunWithCrashes(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, servers, origins []int, r *xrand.Source) (*FailureMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism > 1 {
		// Unlike Run, this path is not shardable by server: the client
		// re-dispatch to surviving servers crosses shards. Reject rather
		// than silently interleave wrongly.
		return nil, fmt.Errorf("sim: RunWithCrashes is inherently sequential (Parallelism = %d)", cfg.Parallelism)
	}
	if p.System() != sc.Sys {
		return nil, fmt.Errorf("sim: placement belongs to a different system")
	}
	n, mSites := sc.Sys.N(), sc.Sys.M()
	downServer := make([]bool, n)
	for _, i := range servers {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("sim: crashed server %d of %d", i, n)
		}
		downServer[i] = true
	}
	downOrigin := make([]bool, mSites)
	for _, j := range origins {
		if j < 0 || j >= mSites {
			return nil, fmt.Errorf("sim: crashed origin %d of %d", j, mSites)
		}
		downOrigin[j] = true
	}

	// Routing is core's nearest-source rule over the survivors: own
	// replica first, then the lowest cost; the origin wins a tie with a
	// server, the lower index a tie between servers.
	up := func(k int) bool { return !downServer[k] }

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
		origin, j := req.Server, req.Site
		if t < cfg.Warmup {
			// Warm-up: healthy dispatch shapes the caches, no accounting.
			if !p.Has(origin, j) && caches != nil && req.Cacheable {
				key := cache.Key{Site: j, Object: req.Object}
				if !caches[origin].Get(key) {
					caches[origin].Put(key, sc.Work.Size(j, req.Object))
				}
			}
			continue
		}

		m.Requests++
		// The server that takes the client (itself when alive, -1 when
		// none survives) and the hops to it.
		i, detour := sc.Sys.NearestServer(origin, up)
		if i != origin {
			m.Rerouted++
		}
		if i < 0 {
			// Every server down: nothing can even accept the request.
			m.Unavailable++
			continue
		}
		firstHop := cfg.FirstHopMs + cfg.PerHopMs*detour
		switch {
		case p.Has(i, j):
			totalRT += firstHop
			m.LocalReplica++
		case caches != nil && req.Cacheable && caches[i].Get(cache.Key{Site: j, Object: req.Object}):
			totalRT += firstHop
			m.CacheHits++
			if downOrigin[j] {
				m.StaleRisk++
			}
		default:
			_, hops := p.NearestSource(i, j, up, !downOrigin[j])
			if math.IsInf(hops, 1) { // no surviving source
				m.Unavailable++
				break
			}
			totalRT += firstHop + cfg.PerHopMs*hops
			if caches != nil && req.Cacheable {
				caches[i].Put(cache.Key{Site: j, Object: req.Object}, sc.Work.Size(j, req.Object))
				m.CacheMisses++
			}
		}
	}
	if served := int64(m.Requests) - m.Unavailable; served > 0 {
		m.MeanRTMs = totalRT / float64(served)
	}
	return m, nil
}
