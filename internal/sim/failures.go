package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
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

// RunWithCrashes replays the workload through a crash set: warm-up runs
// on healthy dispatch, so the caches reach their steady state, then at
// cfg.Warmup the listed servers and origins die for good and only the
// measured requests see them gone. The crash is a placement swap: a
// Stepper serves every request, and at the boundary it takes the
// survivors' view of p (see survivors).
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
	st, err := NewStepper(sc, p, cfg)
	if err != nil {
		return nil, err
	}
	up := func(k int) bool { return !downServer[k] }

	m := &FailureMetrics{}
	stream := sc.Stream(r)
	var totalRT float64
	for t := 0; t < cfg.Warmup+cfg.Requests; t++ {
		if t%cancelEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		req := stream.Next()
		if t < cfg.Warmup {
			st.Step(req, false)
			continue
		}
		if t == cfg.Warmup {
			if err := st.SetPlacement(survivors(p, downServer, downOrigin), nil); err != nil {
				return nil, err
			}
		}

		m.Requests++
		// The server that takes the client (itself when alive, -1 when
		// none survives) and the hops to it.
		i, detour := sc.Sys.NearestServer(req.Server, up)
		if i != req.Server {
			m.Rerouted++
		}
		if i < 0 {
			// Every server down: nothing can even accept the request.
			m.Unavailable++
			continue
		}
		req.Server = i
		hops, source := st.Step(req, true)
		if math.IsInf(hops, 1) { // no surviving source
			m.Unavailable++
			continue
		}
		totalRT += cfg.FirstHopMs + cfg.PerHopMs*detour + cfg.PerHopMs*hops
		switch {
		case source == obs.SourceReplica:
			m.LocalReplica++
		case source == obs.SourceCache:
			m.CacheHits++
			if downOrigin[req.Site] {
				m.StaleRisk++
			}
		case cfg.UseCache && req.Cacheable:
			m.CacheMisses++
		}
	}
	if served := int64(m.Requests) - m.Unavailable; served > 0 {
		m.MeanRTMs = totalRT / float64(served)
	}
	return m, nil
}

// survivors is p as the crash set leaves it: the dead servers hold no
// replicas and a dead origin's cost is +Inf, so its site's SN is the
// nearest surviving replica, or nothing at +Inf. The live servers keep
// p's replicas and so p's free space.
func survivors(p *core.Placement, downServer, downOrigin []bool) *core.Placement {
	sys := *p.System()
	sys.CostOrigin = make([][]float64, sys.N())
	for i, row := range p.System().CostOrigin {
		sys.CostOrigin[i] = append([]float64(nil), row...)
		for j, down := range downOrigin {
			if down {
				sys.CostOrigin[i][j] = math.Inf(1)
			}
		}
	}
	q := core.NewPlacement(&sys)
	for i := range downServer {
		for j := range downOrigin {
			if p.Has(i, j) && !downServer[i] {
				// Cannot fail: p holds these replicas in the same capacity.
				_ = q.Replicate(i, j)
			}
		}
	}
	return q
}
