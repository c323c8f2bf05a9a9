package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// FailureSet lists crashed components for an availability experiment.
// The paper motivates replication over caching with availability ("a
// generic caching scheme offers no guarantees on content availability...
// less than acceptable for a CDN that wants to provide QoS guarantees",
// §1); this simulator path quantifies that argument.
type FailureSet struct {
	// Servers are failed CDN servers: their replicas and caches are
	// gone and their client populations are re-dispatched to the
	// nearest surviving server.
	Servers []int
	// Origins are failed primary sites: their content is reachable
	// only through surviving replicas, or — best effort, possibly
	// stale — through surviving cached copies.
	Origins []int
}

// FailureMetrics aggregates an availability run.
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

// RunWithFailures replays the workload against a placement in which the
// given components have crashed. Caches are warmed before the failures
// are injected (cfg.Warmup requests with everything alive), so the run
// answers: "the system was in steady state, then k components died —
// what do clients see?"
//
// Failures here are static — dead at the measurement boundary, forever:
// the degenerate schedule fault.Crashes(cfg.Warmup, servers, origins) of
// RunWithSchedule, which this function runs.
func RunWithFailures(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, fail FailureSet, r *xrand.Source) (*FailureMetrics, error) {
	// Before anything is built on cfg.Warmup or the ids: a schedule
	// rejects a negative time or id by panicking.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, mSites := sc.Sys.N(), sc.Sys.M()
	down := make(map[int]bool, len(fail.Servers))
	for _, s := range fail.Servers {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("sim: failed server %d out of range", s)
		}
		down[s] = true
	}
	if len(down) == n {
		return nil, fmt.Errorf("sim: all servers failed")
	}
	for _, o := range fail.Origins {
		if o < 0 || o >= mSites {
			return nil, fmt.Errorf("sim: failed origin %d out of range", o)
		}
	}
	m, err := RunWithSchedule(ctx, sc, p, cfg, fault.Crashes(cfg.Warmup, fail.Servers, fail.Origins), r)
	if err != nil {
		return nil, err
	}
	return &m.FailureMetrics, nil
}

// RandomFailures draws k distinct failed origins and s distinct failed
// servers, deterministically from r.
func RandomFailures(sc *scenario.Scenario, servers, origins int, r *xrand.Source) FailureSet {
	var f FailureSet
	if servers > 0 {
		perm := r.Perm(sc.Sys.N())
		f.Servers = append(f.Servers, perm[:servers]...)
	}
	if origins > 0 {
		perm := r.Perm(sc.Sys.M())
		f.Origins = append(f.Origins, perm[:origins]...)
	}
	return f
}
