// Package sim is the trace-driven CDN simulator of §5.
//
// Each synthetic request arrives at its first-hop server (the client's
// DNS-nearest CDN server). If the requested site is replicated there, or
// the object is in the server's cache, the request is satisfied locally
// at the first-hop latency. Otherwise the server redirects to the nearest
// replicator SN (possibly the origin), paying the configured per-hop
// delay for the shortest path — 20 ms/hop in the paper — on top of the
// first-hop delay. Uncacheable or stale requests (the λ fraction, §3.3 /
// the strong-consistency experiment of §5.2) always travel to SN and
// bypass the cache.
//
// The simulator measures, after a cache warm-up period, the response-time
// distribution (Figures 3–5) and the mean redirection cost per request in
// hops (Figure 6).
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config controls one simulation run.
type Config struct {
	// Requests is the number of measured requests (after warm-up).
	Requests int
	// Warmup is the number of unmeasured requests used to bring the
	// caches to steady state ("we allowed an appropriate warm-up
	// period ... in order for the caches to reach their steady-state",
	// §5.2).
	Warmup int
	// UseCache enables the per-server caches over the free storage.
	// The pure-replication mechanism of §5.2 runs with this off.
	UseCache bool
	// Policy selects the replacement policy (LRU in the paper).
	Policy cache.Policy
	// FirstHopMs is the client-to-first-hop-server latency; the
	// paper's CDFs show locally satisfied requests at 20 ms.
	FirstHopMs float64
	// PerHopMs is the propagation+queueing+processing delay per core
	// hop (20 ms in §5.1).
	PerHopMs float64
	// KeepResponseTimes retains every measured response time for CDF
	// construction; disable for pure-throughput benchmarks.
	KeepResponseTimes bool
	// Parallelism is the number of goroutines RunParallel and
	// RunSourceParallel step each block of requests on: 0 means
	// runtime.GOMAXPROCS(0), 1 one goroutine. They split a block by
	// destination server — caches and per-server counters are
	// independent across servers — so their runs are bit-identical to
	// Run's, not approximations. Run and RunSource ignore this field;
	// RunWithCrashes rejects values above 1 (it re-dispatches a dead
	// server's clients, so it cannot group requests by server up front).
	Parallelism int
	// UnitOf, when non-nil, maps a request (site, 1-based object rank)
	// to the placement column that owns it — the per-cluster
	// replication extension, where the placement's "sites" are
	// popularity clusters rather than whole web sites. The placement
	// must then belong to the derived cluster system. Nil means
	// columns are sites (the paper's granularity).
	UnitOf func(site, object int) int
	// Tracer, when non-nil, receives the span tree of every *measured*
	// request as JSONL, in virtual time (request k starts at k ms;
	// durations are the latency model's): the schema the HTTP cluster
	// writes, so one cdntrace invocation analyses either. IDs derive
	// from the request id, so sequential and parallel runs write
	// identical bytes. Warm-up requests are not traced. SpanSource
	// replays the trace as requests.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives an end-of-run snapshot of the
	// per-server hit/miss counters and the modelled response-time
	// histogram (publishing after the run keeps the hot loop free of
	// registry lookups).
	Metrics *obs.Registry
	// PlacedGeneration, when non-nil, is the catalog generation whose
	// content each placement column's replicas hold (dynamic-catalog
	// runs; see workload.DynamicStream). A request whose Generation
	// exceeds its column's placed generation cannot be served by
	// replicas or remote servers — they hold a perished predecessor's
	// bytes — and is redirected to the origin, counted in
	// Metrics.StaleReplica. Nil means generation 0 everywhere: the
	// static catalog.
	PlacedGeneration []int
}

// DefaultConfig returns the paper's latency parameters with a
// 500k-request measurement after a 1M-request warm-up (large caches —
// 20% capacity is ~8000 object slots per server — need tens of thousands
// of per-server requests to reach LRU steady state).
func DefaultConfig() Config {
	return Config{
		Requests:          500000,
		Warmup:            1000000,
		UseCache:          true,
		Policy:            cache.PolicyLRU,
		FirstHopMs:        20,
		PerHopMs:          20,
		KeepResponseTimes: true,
	}
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Requests < 1:
		return fmt.Errorf("sim: Requests = %d", c.Requests)
	case c.Warmup < 0:
		return fmt.Errorf("sim: Warmup = %d", c.Warmup)
	case c.FirstHopMs < 0 || c.PerHopMs < 0:
		return fmt.Errorf("sim: negative delay")
	case c.Parallelism < 0:
		return fmt.Errorf("sim: Parallelism = %d", c.Parallelism)
	}
	return nil
}

// Metrics aggregates one run's measured phase.
type Metrics struct {
	Requests int
	// ResponseTimesMs holds every measured response time when
	// Config.KeepResponseTimes is set.
	ResponseTimesMs []float64
	// MeanRTMs is the mean response time in milliseconds.
	MeanRTMs float64
	// MeanHops is the mean redirection cost per request in hops,
	// the paper's Figure 6 metric (0 for locally served requests;
	// the first hop to the CDN server is not counted, matching the
	// objective D).
	MeanHops float64
	// LocalReplica counts requests served by a local site replica.
	LocalReplica int64
	// CacheHits / CacheMisses count cacheable requests for
	// non-replicated sites.
	CacheHits, CacheMisses int64
	// Bypass counts uncacheable/stale requests that had to travel.
	Bypass int64
	// RemoteServer / OriginFetch split the redirected requests by
	// destination type.
	RemoteServer, OriginFetch int64
	// PerServerHitRatio is each server's cache hit ratio over its
	// cacheable, non-replicated traffic (NaN-free: 0 when unused).
	PerServerHitRatio []float64
	// PerServerHits / PerServerLookups are the raw counters behind
	// PerServerHitRatio, exported so measured per-edge curves can be
	// reconciled against the LRU model's predictions (and published to
	// an obs.Registry).
	PerServerHits, PerServerLookups []int64
	// Dynamic-catalog outcomes (zero on static runs). Perished counts
	// requests for withdrawn content: a 404 answered by the origin,
	// never cached and never attributed to the cache or replica
	// counters. StaleReplica counts requests redirected to the origin
	// because every replica of their column holds an older catalog
	// generation (placement dead weight). UnknownSite counts requests
	// whose site index is outside the catalog entirely (stale client,
	// corrupt trace): answered 404 at the first hop without indexing
	// into placement or size tables.
	Perished, StaleReplica, UnknownSite int64
}

// LocalFraction is the share of measured requests satisfied at the
// first-hop server.
func (m *Metrics) LocalFraction() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.LocalReplica+m.CacheHits) / float64(m.Requests)
}

// HitRatio is the aggregate cache hit ratio over cacheable requests for
// non-replicated sites.
func (m *Metrics) HitRatio() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// CDF builds the response-time CDF (requires KeepResponseTimes).
func (m *Metrics) CDF() stats.CDF { return stats.NewCDF(m.ResponseTimesMs) }

// Summary summarizes the response times.
func (m *Metrics) Summary() stats.Summary { return stats.Summarize(m.ResponseTimesMs) }

// Source yields the request sequence a simulation consumes. The
// workload's IRM stream is the usual source; a span trace replayed by
// SpanSource is the other. ok = false means the source is exhausted.
type Source interface {
	Next() (req workload.Request, ok bool)
}

// streamSource adapts the endless synthetic stream to Source.
type streamSource struct{ s *workload.Stream }

func (ss streamSource) Next() (workload.Request, bool) { return ss.s.Next(), true }

// EndlessSource adapts any endless request stream — workload.Stream,
// workload.DynamicStream — to Source (ok is always true).
type EndlessSource struct {
	S interface{ Next() workload.Request }
}

// Next implements Source.
func (e EndlessSource) Next() (workload.Request, bool) { return e.S.Next(), true }

// cancelEvery is how often the request loops poll ctx between batches:
// frequent enough that cancellation lands within microseconds at any
// scale, rare enough to stay invisible on the hot path.
const cancelEvery = 4096

// Run simulates cfg.Warmup+cfg.Requests requests drawn from the
// scenario's workload against placement p, and returns the measured-phase
// metrics. r drives request sampling only, so runs with equal seeds are
// identical for every placement being compared — the paper's mechanisms
// all see the same trace. Cancelling ctx aborts the run between request
// batches with ctx.Err().
func Run(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, r *xrand.Source) (*Metrics, error) {
	return RunSource(ctx, sc, p, cfg, streamSource{sc.Stream(r)})
}

// RunSource is Run driven by an explicit request source (e.g. a replayed
// span trace), on the calling goroutine. It fails if the source is
// exhausted before warm-up plus measurement completes, or yields a
// request for a server the scenario does not have or for an object
// outside a known site's catalog. (A site the scenario does not know is
// counted in Metrics.UnknownSite.)
func RunSource(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, src Source) (*Metrics, error) {
	return run(ctx, sc, p, cfg, src, 1)
}

// RunParallel is Run on cfg.Parallelism goroutines (0 =
// runtime.GOMAXPROCS). The result is bit-identical to Run with the same
// seed.
func RunParallel(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, r *xrand.Source) (*Metrics, error) {
	return RunSourceParallel(ctx, sc, p, cfg, streamSource{sc.Stream(r)})
}

// RunSourceParallel is RunSource on cfg.Parallelism goroutines (0 =
// runtime.GOMAXPROCS). The calling goroutine still draws every request,
// so any Source works unchanged; the others only step. Cancelling ctx
// aborts the run between blocks (4 096 requests on one goroutine,
// 16 384 on more) with ctx.Err(), once the helpers have stepped the
// block in hand and returned.
func RunSourceParallel(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, src Source) (*Metrics, error) {
	workers := cfg.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return run(ctx, sc, p, cfg, src, workers)
}

// validateRun checks a run's configuration and placement/scenario
// pairing.
func validateRun(sc *scenario.Scenario, p *core.Placement, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.UnitOf == nil {
		if p.System() != sc.Sys {
			return fmt.Errorf("sim: placement belongs to a different system")
		}
	} else if p.System().N() != sc.Sys.N() {
		return fmt.Errorf("sim: cluster placement has %d servers, scenario %d",
			p.System().N(), sc.Sys.N())
	}
	return nil
}

// shard is the simulation state one goroutine steps requests with: the
// per-server caches, which the goroutines of one run share (a block gives
// each server to one of them), and a private Metrics accumulating its
// counters.
type shard struct {
	sc  *scenario.Scenario
	p   *core.Placement
	cfg *Config
	// caches is indexed by server; nil when caching is off.
	caches []cache.Cache
	m      *Metrics
}

// newShard builds the caches over the free space p leaves.
func newShard(sc *scenario.Scenario, p *core.Placement, cfg *Config) *shard {
	n := sc.Sys.N()
	s := &shard{sc: sc, p: p, cfg: cfg, m: newMetrics(n)}
	if cfg.UseCache {
		s.caches = make([]cache.Cache, n)
		for i := range s.caches {
			s.caches[i] = cache.New(cfg.Policy, p.Free(i))
		}
	}
	return s
}

// newMetrics returns zeroed Metrics for n servers.
func newMetrics(n int) *Metrics {
	return &Metrics{
		PerServerHitRatio: make([]float64, n),
		PerServerHits:     make([]int64, n),
		PerServerLookups:  make([]int64, n),
	}
}

// addCounts adds o's integer counters to m's: they are sums over
// requests, so the order the goroutines counted in does not matter.
func (m *Metrics) addCounts(o *Metrics) {
	m.LocalReplica += o.LocalReplica
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.Bypass += o.Bypass
	m.RemoteServer += o.RemoteServer
	m.OriginFetch += o.OriginFetch
	m.Perished += o.Perished
	m.StaleReplica += o.StaleReplica
	m.UnknownSite += o.UnknownSite
	for i := range m.PerServerHits {
		m.PerServerHits[i] += o.PerServerHits[i]
		m.PerServerLookups[i] += o.PerServerLookups[i]
	}
}

// step dispatches one request exactly as §5 describes, accumulating the
// shard's counters when measured, and returns the redirection cost in
// hops plus the canonical serving-source label.
func (s *shard) step(req workload.Request, measured bool) (hops float64, source string) {
	i, j := req.Server, req.Site
	p, m := s.p, s.m
	// A dynamic catalog (or a corrupt trace) can reference a site the
	// scenario does not know: answer the 404 at the first hop instead
	// of panicking on the placement and size lookups.
	if j < 0 || j >= len(s.sc.Work.Sites) {
		if measured {
			m.UnknownSite++
			source = obs.SourceOrigin
		}
		return 0, source
	}
	if req.Perished {
		// Withdrawn content: only the origin can answer — with a 404 —
		// so the request pays the full origin trip and bypasses the
		// cache (negative responses are not cached).
		if measured {
			m.Perished++
			m.OriginFetch++
			source = obs.SourceOrigin
		}
		return s.sc.Sys.CostOrigin[i][j], source
	}
	// col is the placement column owning this request: the site
	// itself, or its popularity cluster under UnitOf.
	col := j
	if s.cfg.UnitOf != nil {
		col = s.cfg.UnitOf(j, req.Object)
	}
	// A stale column's replicas — local and remote alike — hold a
	// perished generation's bytes and cannot serve this request; only
	// the generation-keyed cache or the origin can.
	stale := false
	if req.Generation > 0 {
		gen := 0
		if s.cfg.PlacedGeneration != nil {
			gen = s.cfg.PlacedGeneration[col]
		}
		stale = req.Generation > gen
	}
	if p.Has(i, col) && !stale {
		// Served by the local replica. Replicas are always consistent
		// (§5.2), so even stale/uncacheable requests stay local.
		if measured {
			m.LocalReplica++
			source = obs.SourceReplica
		}
		return 0, source
	}
	// Only a cacheable request looks in the cache: the λ fraction
	// bypasses it, as does everything under pure replication.
	lookup := s.caches != nil && req.Cacheable
	// The generation is folded into the cache key's high bits so a
	// republished site's fresh objects never alias its predecessor's
	// cached bytes (64-bit int assumed, as elsewhere).
	key := cache.Key{Site: j, Object: req.Object + req.Generation<<32}
	if lookup && s.caches[i].Get(key) {
		if measured {
			m.CacheHits++
			m.PerServerHits[i]++
			m.PerServerLookups[i]++
			source = obs.SourceCache
		}
		return 0, source
	}
	// The request travels: to SN, or to the origin when its column's
	// replicas are stale. A miss admits what it fetched; at +Inf no
	// source was reachable, so nothing was.
	if stale {
		hops = s.sc.Sys.CostOrigin[i][j]
	} else {
		hops = p.NearestCost(i, col)
	}
	if lookup && !math.IsInf(hops, 1) {
		s.caches[i].Put(key, s.sc.Work.Size(j, req.Object))
	}
	if measured {
		if lookup {
			m.CacheMisses++
			m.PerServerLookups[i]++
		} else if !req.Cacheable {
			m.Bypass++
		}
		if stale {
			m.StaleReplica++
			m.OriginFetch++
			source = obs.SourceOrigin
		} else {
			source = m.countRemote(p, i, col)
		}
	}
	return hops, source
}

// finalize computes the derived metrics and publishes the snapshot; the
// running sums must have been accumulated in global request order so
// that sequential and parallel runs agree bit-for-bit.
func (m *Metrics) finalize(cfg *Config, totalRT, totalHops float64) {
	if m.Requests > 0 {
		m.MeanRTMs = totalRT / float64(m.Requests)
		m.MeanHops = totalHops / float64(m.Requests)
	}
	for i := range m.PerServerHitRatio {
		if m.PerServerLookups[i] > 0 {
			m.PerServerHitRatio[i] = float64(m.PerServerHits[i]) / float64(m.PerServerLookups[i])
		}
	}
	if cfg.Metrics != nil {
		m.publish(cfg.Metrics)
	}
}

// inCatalog reports whether req's object is a rank of its site. A site
// the scenario does not know passes: step answers it 404 without reading
// the catalog.
func inCatalog(sites []*workload.Site, req *workload.Request) bool {
	return uint(req.Site) >= uint(len(sites)) || uint(req.Object-1) < uint(len(sites[req.Site].Objects))
}

// drawErr is why drawing request t of total failed: the source ran out
// (!ok), or the request names a server outside the n the scenario has or
// an object outside its site's catalog.
func drawErr(ok bool, req workload.Request, t, total int, sites []*workload.Site, n int) error {
	switch {
	case !ok:
		return fmt.Errorf("sim: request source exhausted after %d of %d requests", t, total)
	case uint(req.Server) >= uint(n):
		return fmt.Errorf("sim: request %d names server %d of %d", t, req.Server, n)
	}
	return fmt.Errorf("sim: request %d names object %d of site %d (%d objects)",
		t, req.Object, req.Site, len(sites[req.Site].Objects))
}

// fold adds measured requests to a run in draw order: the sums behind
// MeanRTMs and MeanHops, ResponseTimesMs, the response-time histogram and
// the trace.
type fold struct {
	cfg                *Config
	m                  *Metrics
	rtHist             *obs.Histogram
	totalRT, totalHops float64
}

// newFold registers the response-time histogram before anything is
// simulated, so the metric family exists even for a run with zero
// observations.
func newFold(cfg *Config, m *Metrics) *fold {
	f := &fold{cfg: cfg, m: m}
	if cfg.KeepResponseTimes {
		m.ResponseTimesMs = make([]float64, 0, cfg.Requests)
	}
	if cfg.Metrics != nil {
		f.rtHist = cfg.Metrics.Histogram("sim_response_time_ms",
			"Modelled response time of measured requests, milliseconds.",
			nil, obs.DefaultLatencyBuckets())
	}
	return f
}

// add folds b's requests in draw order if they are measured. Tracing
// reads their requests and sources.
func (f *fold) add(b *block) {
	cfg, m := f.cfg, f.m
	if b.t0 < cfg.Warmup {
		return
	}
	for k, i := range b.pos[:b.len] {
		hops := b.hops[i]
		rt := cfg.FirstHopMs + cfg.PerHopMs*hops
		f.totalRT += rt
		f.totalHops += hops
		if cfg.KeepResponseTimes {
			m.ResponseTimesMs = append(m.ResponseTimesMs, rt)
		}
		if f.rtHist != nil {
			f.rtHist.Observe(rt)
		}
		if cfg.Tracer != nil {
			emitSimSpans(cfg, b.t0-cfg.Warmup+k, &b.reqs[i], b.sources[i], hops, rt)
		}
	}
	m.Requests += b.len
}

// finish computes the derived metrics once every request is folded.
func (f *fold) finish() { f.m.finalize(f.cfg, f.totalRT, f.totalHops) }

// publish snapshots the run's counters into reg under the sim_*
// namespace — the same shape the HTTP cluster maintains live, done
// once after the run so the simulation loop stays registry-free.
func (m *Metrics) publish(reg *obs.Registry) {
	bySource := map[string]int64{
		obs.SourceReplica: m.LocalReplica,
		obs.SourceCache:   m.CacheHits,
		obs.SourcePeer:    m.RemoteServer,
		obs.SourceOrigin:  m.OriginFetch,
	}
	for _, src := range obs.Sources {
		reg.Counter("sim_requests_total",
			"Measured simulated requests by serving source.",
			obs.Labels{"source": src}).Add(bySource[src])
	}
	for i := range m.PerServerLookups {
		edge := obs.Labels{"edge": strconv.Itoa(i)}
		reg.Counter("sim_edge_cache_hits_total",
			"Cache hits at a simulated server.", edge).Add(m.PerServerHits[i])
		reg.Counter("sim_edge_cache_misses_total",
			"Cache misses at a simulated server.", edge).
			Add(m.PerServerLookups[i] - m.PerServerHits[i])
	}
}

// countRemote attributes one redirected request to its destination and
// returns the canonical source value.
func (m *Metrics) countRemote(p *core.Placement, i, j int) string {
	if srv, _ := p.Nearest(i, j); srv == core.Origin {
		m.OriginFetch++
		return obs.SourceOrigin
	}
	m.RemoteServer++
	return obs.SourcePeer
}
