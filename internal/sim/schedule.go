package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// FailureMetrics aggregates an availability run: the run-wide counters
// of a fault schedule replay. The paper motivates replication over
// caching with availability ("a generic caching scheme offers no
// guarantees on content availability", §1); these counters quantify it.
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

// PhaseMetrics aggregates the measured requests of one inter-event
// interval. Every fault event that fires inside the measured window
// opens a new phase, so the per-phase rows show availability and
// response time degrading as components crash and re-converging as they
// recover — the time axis a static crash set (fault.Crashes) collapses.
type PhaseMetrics struct {
	// From/To bound the phase in virtual time (request indices,
	// inclusive-exclusive). The first phase starts at cfg.Warmup.
	From, To int
	// Requests is the measured request count in the phase.
	Requests int
	// Unavailable / StaleRisk are as in FailureMetrics, phase-local.
	Unavailable int64
	StaleRisk   int64
	// MeanRTMs is the mean response time over the phase's available
	// requests.
	MeanRTMs float64
}

// Availability is the fraction of the phase's requests that were served.
func (p *PhaseMetrics) Availability() float64 {
	if p.Requests == 0 {
		return 1
	}
	return 1 - float64(p.Unavailable)/float64(p.Requests)
}

// ScheduleMetrics aggregates a churn run: the run-wide counters of the
// static model plus the per-phase timeline.
type ScheduleMetrics struct {
	FailureMetrics
	// Phases partitions the measured window at event times, in order.
	Phases []PhaseMetrics
	// EventsApplied counts schedule events that fired before the run
	// ended (events at or beyond Warmup+Requests never fire).
	EventsApplied int
}

// scheduleState is the mutable component state a schedule drives.
type scheduleState struct {
	downServer []bool
	downOrigin []bool
	// slowServer / slowOrigin are the per-component extra milliseconds
	// from an active Slow event (0 = full speed).
	slowServer []float64
	slowOrigin []float64
}

// srcEntry is one (first-hop server, site) routing decision: the serving
// node, its hop cost and its slow penalty, with eff = +Inf when no
// surviving source exists.
type srcEntry struct {
	srv     int
	cost    float64
	extraMs float64
	eff     float64
}

// RunWithSchedule replays the workload while the fault schedule fires:
// components crash, recover and slow down at their event times, and the
// nearest-live-replica routing is re-resolved after every event. It
// generalizes "dead at the measurement boundary, forever" — the
// degenerate schedule fault.Crashes(cfg.Warmup, servers, origins) — to
// mid-run churn.
//
// Semantics per event kind:
//
//   - Crash(server): replicas unreachable, cache storage lost, clients
//     re-dispatched to the nearest surviving server with detour cost.
//   - Recover(server): back in rotation with an *empty* cache — the
//     availability dip after recovery, until the cache re-warms, is real
//     and the per-phase rows show it.
//   - Crash(origin)/Recover(origin): the site is reachable only through
//     replicas or (StaleRisk) cached copies while down.
//   - Slow(c, extra): the component stays up but adds extra ms to every
//     request it serves; routing prefers a fast source over a slow one
//     when the effective latency says so. Recover clears the penalty.
//
// Virtual time is the global request index counted from the first
// warm-up request, so cfg.Warmup is the first measured request. Events
// during warm-up shape cache state but no metrics; events in the
// measured window additionally open a new PhaseMetrics row. The run is
// a pure function of (scenario, placement, cfg, schedule, seed).
func RunWithSchedule(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, sched *fault.Schedule, r *xrand.Source) (*ScheduleMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism > 1 {
		// Unlike Run, this path is not shardable by server: the events
		// and the client re-dispatch to surviving servers make it a
		// time-ordered global event stream. Reject rather than silently
		// interleave wrongly.
		return nil, fmt.Errorf("sim: RunWithSchedule is inherently sequential (Parallelism = %d)", cfg.Parallelism)
	}
	if p.System() != sc.Sys {
		return nil, fmt.Errorf("sim: placement belongs to a different system")
	}
	if sched == nil {
		sched = fault.MustSchedule()
	}
	n, mSites := sc.Sys.N(), sc.Sys.M()
	if id := sched.MaxID(fault.Server); id >= n {
		return nil, fmt.Errorf("sim: schedule references server %d of %d", id, n)
	}
	if id := sched.MaxID(fault.Origin); id >= mSites {
		return nil, fmt.Errorf("sim: schedule references origin %d of %d", id, mSites)
	}

	st := &scheduleState{
		downServer: make([]bool, n),
		downOrigin: make([]bool, mSites),
		slowServer: make([]float64, n),
		slowOrigin: make([]float64, mSites),
	}
	var caches []cache.Cache
	if cfg.UseCache {
		caches = make([]cache.Cache, n)
		for i := 0; i < n; i++ {
			caches[i] = cache.New(cfg.Policy, p.Free(i))
		}
	}

	// Routing tables, recomputed after every event batch.
	handler := make([]int, n)
	detour := make([]float64, n)
	nearest := make([][]srcEntry, n)
	for i := range nearest {
		nearest[i] = make([]srcEntry, mSites)
	}
	resolve := func() {
		for i := 0; i < n; i++ {
			if !st.downServer[i] {
				handler[i], detour[i] = i, 0
				continue
			}
			best, bestCost := -1, math.Inf(1)
			for k := 0; k < n; k++ {
				if !st.downServer[k] && sc.Sys.CostServer[i][k] < bestCost {
					best, bestCost = k, sc.Sys.CostServer[i][k]
				}
			}
			handler[i], detour[i] = best, bestCost
		}
		for i := 0; i < n; i++ {
			for j := 0; j < mSites; j++ {
				e := srcEntry{srv: core.Origin, eff: math.Inf(1)}
				if !st.downOrigin[j] {
					e.cost = sc.Sys.CostOrigin[i][j]
					e.extraMs = st.slowOrigin[j]
					e.eff = cfg.PerHopMs*e.cost + e.extraMs
				}
				for k := 0; k < n; k++ {
					if st.downServer[k] || !p.Has(k, j) {
						continue
					}
					eff := cfg.PerHopMs*sc.Sys.CostServer[i][k] + st.slowServer[k]
					if eff < e.eff {
						e = srcEntry{srv: k, cost: sc.Sys.CostServer[i][k], extraMs: st.slowServer[k], eff: eff}
					}
				}
				nearest[i][j] = e
			}
		}
	}
	apply := func(e fault.Event) {
		switch e.Comp {
		case fault.Server:
			switch e.Kind {
			case fault.Crash:
				st.downServer[e.ID] = true
				st.slowServer[e.ID] = 0
				if caches != nil {
					// Storage is lost with the server; a later Recover
					// starts cold.
					caches[e.ID] = cache.New(cfg.Policy, p.Free(e.ID))
				}
			case fault.Recover:
				st.downServer[e.ID] = false
				st.slowServer[e.ID] = 0
			case fault.Slow:
				st.slowServer[e.ID] = e.ExtraMs
			}
		case fault.Origin:
			switch e.Kind {
			case fault.Crash:
				st.downOrigin[e.ID] = true
				st.slowOrigin[e.ID] = 0
			case fault.Recover:
				st.downOrigin[e.ID] = false
				st.slowOrigin[e.ID] = 0
			case fault.Slow:
				st.slowOrigin[e.ID] = e.ExtraMs
			}
		}
	}
	resolve()

	m := &ScheduleMetrics{}
	events := sched.Events()
	next := 0
	stream := sc.Stream(r)
	var totalRT float64

	// Phase accounting: the current phase and its running sums.
	phaseStart := cfg.Warmup
	var phReq int
	var phUnavail, phStale int64
	var phRT float64
	closePhase := func(to int) {
		if to <= phaseStart {
			return
		}
		ph := PhaseMetrics{
			From:        phaseStart,
			To:          to,
			Requests:    phReq,
			Unavailable: phUnavail,
			StaleRisk:   phStale,
		}
		if avail := int64(phReq) - phUnavail; avail > 0 {
			ph.MeanRTMs = phRT / float64(avail)
		}
		m.Phases = append(m.Phases, ph)
		phaseStart, phReq, phUnavail, phStale, phRT = to, 0, 0, 0, 0
	}

	total := cfg.Warmup + cfg.Requests
	for t := 0; t < total; t++ {
		if t%cancelEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if next < len(events) && events[next].At <= t {
			if t >= cfg.Warmup {
				closePhase(t)
			}
			for next < len(events) && events[next].At <= t {
				apply(events[next])
				next++
				m.EventsApplied++
			}
			resolve()
		}
		req := stream.Next()
		measured := t >= cfg.Warmup
		origin, j := req.Server, req.Site

		i := handler[origin]
		if !measured {
			// Warm-up: shape cache state with the same dispatch, no
			// accounting.
			if i < 0 {
				continue
			}
			switch {
			case p.Has(i, j):
			case caches != nil && req.Cacheable:
				key := cache.Key{Site: j, Object: req.Object}
				if !caches[i].Get(key) && !math.IsInf(nearest[i][j].eff, 1) {
					caches[i].Put(key, sc.Work.Size(j, req.Object))
				}
			}
			continue
		}

		m.Requests++
		phReq++
		if i != origin {
			m.Rerouted++
		}
		if i < 0 {
			// Every server down: nothing can even accept the request.
			m.Unavailable++
			phUnavail++
			continue
		}

		firstHop := cfg.FirstHopMs + cfg.PerHopMs*detour[origin] + st.slowServer[i]
		var rt float64
		served := true
		switch {
		case p.Has(i, j):
			rt = firstHop
			m.LocalReplica++
		case caches != nil && req.Cacheable && caches[i].Get(cache.Key{Site: j, Object: req.Object}):
			rt = firstHop
			m.CacheHits++
			if st.downOrigin[j] {
				m.StaleRisk++
				phStale++
			}
		case math.IsInf(nearest[i][j].eff, 1):
			served = false
			m.Unavailable++
			phUnavail++
		default:
			src := nearest[i][j]
			rt = firstHop + cfg.PerHopMs*src.cost + src.extraMs
			if caches != nil && req.Cacheable {
				caches[i].Put(cache.Key{Site: j, Object: req.Object}, sc.Work.Size(j, req.Object))
				m.CacheMisses++
			}
		}
		if served {
			totalRT += rt
			phRT += rt
		}
	}
	closePhase(total)
	if availCount := int64(m.Requests) - m.Unavailable; availCount > 0 {
		m.MeanRTMs = totalRT / float64(availCount)
	}
	return m, nil
}
