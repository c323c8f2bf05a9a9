package httpcdn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Roster is an immutable snapshot of where an engine's upstreams listen.
// An empty entry is a component whose address is not known (yet): it is
// never contacted and never blamed.
type Roster struct {
	Peers   []string // base URL by edge id (the engine's own entry is ignored)
	Origins []string // base URL by site, one entry per site
}

// EngineConfig is one edge's configuration: the serving knobs of Config
// plus the wiring its deployment (clusterd.Edge) sets.
type EngineConfig struct {
	Config
	// ID is the edge's id in the scenario; Placement the replica set it
	// starts with.
	ID        int
	Scenario  *scenario.Scenario
	Placement *core.Placement
	// Spans, when non-nil, receives the span tree of every request: a
	// root serve span with children for the health consult, each
	// failover hop, each upstream attempt and each retry backoff,
	// stitched across servers via the Traceparent header. Nil adds
	// nothing to the serving path beyond a nil pointer check.
	Spans *obs.Tracer

	// PeerHealth[i] is the tracker of edge i as an upstream,
	// OriginHealth[j] that of site j's origin. An edge owns a private
	// set, driven by its own fetch outcomes.
	PeerHealth, OriginHealth []*Tracker

	// RequestTap, when non-nil, is invoked once per client-facing
	// request the edge accepts (internal edge-to-edge fetches excluded),
	// before the request is served, with the requested site. The
	// deployment counts the demand it reports here; the tap must be safe
	// for concurrent use and fast — it runs on the serving path.
	RequestTap func(site int)
}

// Engine is one edge's serving path — local replica, else the LRU cache,
// else the cheapest healthy replica-holding peer or the origin, with
// retry, failover, spans and counters. It is the http.Handler of the
// edge's object URLs; the listener around it, and whoever swaps its
// placement and roster, are the wiring's.
type Engine struct {
	cfg    EngineConfig
	client *http.Client

	// pl is swapped atomically while requests are in flight; each request
	// loads it once and routes wholly against that snapshot. roster
	// likewise.
	pl     atomic.Pointer[core.Placement]
	roster atomic.Pointer[Roster]

	mu    sync.Mutex
	cache cache.Cache
	// cachedVer remembers the version of each cached body.
	cachedVer map[cache.Key]int
	// learned is the newest version of each object this edge has seen in
	// a fetched ETag. Eviction never erases it — it is bounded by the
	// catalog — so a replica, which serves it, never rolls an object back
	// behind what the edge has seen (version 0 if it has seen none).
	learned map[cache.Key]int

	served                        [numSources]*obs.Counter
	latency                       [numSources]*obs.Histogram
	hits, misses, fails, notFound *obs.Counter
}

// upstreamIdleConns is how many idle connections an engine keeps to each
// upstream: enough that an edge's concurrent misses to one peer or origin
// reuse connections between bursts instead of redialling (net/http's
// default Transport keeps two).
const upstreamIdleConns = 64

// NewEngine builds the engine of edge cfg.ID; its roster starts with
// every address unknown.
func NewEngine(cfg EngineConfig) *Engine {
	cfg.Retry = cfg.Retry.WithDefaults()
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.EjectFor <= 0 {
		cfg.EjectFor = DefaultEjectFor
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	id := strconv.Itoa(cfg.ID)
	edgeLabel := obs.Labels{"edge": id}
	e := &Engine{
		cfg: cfg,
		// The engine's own transport (transport.go), with no timer of its
		// own: every attempt runs under fetchOnce's context deadline
		// (Retry.Timeout is never zero), and an idle connection lives
		// until its server or CloseIdleConnections closes it. It asks
		// for no gzip, so a 200 keeps its Content-Length.
		client:    &http.Client{Transport: newTransport()},
		cachedVer: make(map[cache.Key]int),
		learned:   make(map[cache.Key]int),
		hits:      reg.Counter("cdn_edge_cache_hits_total", "Cache hits at an edge.", edgeLabel),
		misses:    reg.Counter("cdn_edge_cache_misses_total", "Cache misses at an edge.", edgeLabel),
		fails:     reg.Counter("cdn_edge_errors_total", "Requests an edge failed to serve.", edgeLabel),
		notFound: reg.Counter("cdn_edge_notfound_total",
			"Requests for sites or objects outside the catalog (404s).", edgeLabel),
	}
	for src := sourceID(0); src < numSources; src++ {
		e.served[src] = reg.Counter("cdn_edge_requests_total",
			"Requests served by an edge, by source.", obs.Labels{"edge": id, "source": src.String()})
		e.latency[src] = reg.Histogram("cdn_request_latency_ms",
			"Edge serve latency by source, milliseconds.",
			obs.Labels{"source": src.String()}, obs.DefaultLatencyBuckets())
	}
	// The hooks fire under e.mu (every cache mutation does) and only
	// touch atomics.
	e.cache = cache.Instrument(cache.NewLRU(cfg.Placement.Free(cfg.ID)), cache.Hooks{
		Evicted: reg.Counter("cdn_edge_cache_evictions_total",
			"Objects evicted from an edge cache.", edgeLabel).Add,
		Resident: reg.Gauge("cdn_edge_cache_resident_bytes",
			"Bytes currently resident in an edge cache.", edgeLabel).Set,
	})
	e.pl.Store(cfg.Placement)
	e.roster.Store(&Roster{Origins: make([]string, cfg.Scenario.Sys.M())})
	return e
}

// SetRoster replaces the upstream addresses; r must not be modified
// afterwards.
func (e *Engine) SetRoster(r Roster) { e.roster.Store(&r) }

// CloseIdleConnections closes the engine's idle upstream connections. One
// that was dialled and never used would otherwise hold the shutdown of
// the server it points at for the five seconds net/http grants it.
func (e *Engine) CloseIdleConnections() { e.client.CloseIdleConnections() }

// Placement returns the placement currently routing requests.
func (e *Engine) Placement() *core.Placement { return e.pl.Load() }

// SetPlacement swaps the live placement and resizes the cache to the new
// free space (shrinking evicts LRU-first). In-flight requests finish
// against the snapshot they loaded; one that redirects to a peer whose
// replica was just dropped falls through to the origin via the
// internal-fetch path, so a swap never loses or misroutes a request. The
// cache may briefly exceed the new free space between the pointer store
// and the resize, which only overcommits the model's storage accounting.
func (e *Engine) SetPlacement(p *core.Placement) {
	e.pl.Store(p)
	e.mu.Lock()
	e.cache.Resize(p.Free(e.cfg.ID))
	e.mu.Unlock()
}

// EdgeStats counts one edge's serves by source.
type EdgeStats struct {
	Replica, CacheHit, PeerFetch, OriginFetch int64
	// NotFound counts requests for paths outside the catalog (stale
	// links to perished sites); they are 404s, not edge failures.
	NotFound int64
}

// CacheLookups returns the edge's cache lookups: hits plus the fetches
// that followed misses (replica serves never consult the cache).
func (s EdgeStats) CacheLookups() int64 { return s.CacheHit + s.PeerFetch + s.OriginFetch }

// HitRatio returns the edge's cache hit ratio over its cache lookups;
// an edge that saw no lookups reports 0, not NaN.
func (s EdgeStats) HitRatio() float64 {
	total := s.CacheLookups()
	if total == 0 {
		return 0
	}
	return float64(s.CacheHit) / float64(total)
}

// LocalFraction returns the share of serves satisfied without leaving
// the edge (replica + cache hits); an idle edge reports 0, not NaN.
func (s EdgeStats) LocalFraction() float64 {
	total := s.Replica + s.CacheLookups()
	if total == 0 {
		return 0
	}
	return float64(s.Replica+s.CacheHit) / float64(total)
}

// Stats reads the edge's counters. A serve is counted before its body is
// written, so a client that has read a response sees it counted.
func (e *Engine) Stats() EdgeStats {
	return EdgeStats{
		Replica:     e.served[srcReplica].Value(),
		CacheHit:    e.served[srcCache].Value(),
		PeerFetch:   e.served[srcPeer].Value(),
		OriginFetch: e.served[srcOrigin].Value(),
		NotFound:    e.notFound.Value(),
	}
}

// ServeHTTP handles GET /obj/{site}/{object} and records the outcome:
// source counters, the per-source latency histogram and the serve span.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	site, object, err := ParseObjectPath(e.cfg.Scenario, r.URL.Path)
	if err != nil {
		// Out-of-catalog path: a client-side 404 (stale link, perished
		// site), not an edge failure — kept out of the error counter so
		// alerts on cdn_edge_errors_total stay honest.
		http.NotFound(w, r)
		e.notFound.Inc()
		return
	}
	// Internal edge-to-edge fetches are not client demand, and a peer
	// that misses them falls through to the origin instead of recursing
	// through the mesh.
	internal := r.Header.Get(InternalHeader) != ""
	if tap := e.cfg.RequestTap; tap != nil && !internal {
		tap(site)
	}
	// Root span for this edge's work. An internal fetch carries the
	// calling edge's Traceparent, making this serve span a child of its
	// upstream-attempt span — one trace per client request across the
	// whole mesh.
	trace, parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	sp := NewSpan(e.cfg.Spans, obs.SpanServe, trace, parent, e.cfg.ID, site, object)
	source, hops, ok := e.handle(w, r, site, object, internal, sp)
	if !ok {
		if r.Context().Err() != nil {
			// The client hung up (or its request ran out of time) before
			// the edge had an answer: not an edge failure.
			sp.Attr("outcome", "canceled")
		} else {
			sp.Attr("outcome", "error")
			e.fails.Inc()
		}
		sp.End()
		return
	}
	sp.Attr("source", source.String())
	sp.AttrFloat("hops", hops)
	sp.Attr("outcome", "ok")
	sp.End()
	e.latency[source].Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// handle serves one parsed request: replica, then cache, then fetch. It
// reports where the response came from and the redirection hops paid;
// ok = false means an error response was written instead.
func (e *Engine) handle(w http.ResponseWriter, r *http.Request, site, object int, internal bool, sp *Span) (source sourceID, hops float64, ok bool) {
	pl := e.pl.Load()
	key := cache.Key{Site: site, Object: object}
	version := 0
	if ok = pl.Has(e.cfg.ID, site); ok {
		source = srcReplica
		e.mu.Lock()
		version = e.learned[key]
		e.mu.Unlock()
	} else if version, ok = e.lookup(key); ok {
		source = srcCache
	}
	if ok {
		e.served[source].Inc()
		writeObject(w, e.cfg.Scenario, site, object, version, source)
		return source, 0, true
	}

	// Ejected peers are skipped at selection time, and when the chosen
	// source fails anyway (after its retries) the fetch fails over to the
	// next candidate instead of surfacing the error.
	hsp := sp.Child(obs.SpanHealth)
	candidates, skipped := e.upstreams(pl, site, internal)
	hsp.AttrInt("candidates", len(candidates))
	hsp.AttrInt("skipped_ejected", skipped)
	hsp.End()
	var body []byte
	var etag string
	var ferr error
	var used upstream
	for hop, u := range candidates {
		fsp := sp.Child(obs.SpanFailover)
		fsp.AttrInt("hop", hop)
		fsp.AttrTarget(u.kind, u.id)
		fsp.AttrFloat("cost_hops", u.hops)
		if e.cfg.PerHopDelay > 0 {
			time.Sleep(time.Duration(u.hops * float64(e.cfg.PerHopDelay)))
		}
		body, etag, ferr = e.fetchWithRetry(r.Context(), u, ObjectPath(site, object), fsp)
		fsp.AttrOutcome(ferr)
		fsp.End()
		if ferr == nil {
			used = u
			break
		}
		if r.Context().Err() != nil {
			break // nobody is waiting for the next candidate
		}
	}
	if ferr != nil {
		status := http.StatusBadGateway
		if errors.Is(ferr, ErrEdgeTimeout) {
			status = http.StatusGatewayTimeout
		}
		w.Header().Set(ErrorHeader, ErrorClass(ferr))
		http.Error(w, ferr.Error(), status)
		return 0, 0, false
	}
	source = srcOrigin
	if used.kind == "edge" {
		source = srcPeer
	}

	version = VersionFromETag(etag)
	e.mu.Lock()
	e.learn(key, version)
	e.cache.Put(key, int64(len(body)))
	if e.cache.Contains(key) {
		e.cachedVer[key] = version
	}
	if len(e.cachedVer) > 2*e.cache.Len()+64 {
		for k := range e.cachedVer {
			if !e.cache.Contains(k) {
				delete(e.cachedVer, k)
			}
		}
	}
	e.mu.Unlock()

	e.served[source].Inc()
	setObjectHeaders(w.Header(), source, etag, int64(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) // a client that hung up mid-body is not the edge's failure
	return source, used.hops, true
}

// lookup consults the cache. It returns the version to serve from cache,
// or ok = false for a miss, and counts the request as exactly one of hit
// and miss.
func (e *Engine) lookup(key cache.Key) (version int, ok bool) {
	e.mu.Lock()
	ok = e.cache.Get(key)
	version = e.cachedVer[key]
	e.mu.Unlock()
	if !ok {
		e.misses.Inc()
		return 0, false
	}
	e.hits.Inc()
	return version, true
}

// upstream is one candidate source for a miss fetch.
type upstream struct {
	kind string // "edge" or "origin"
	id   int
	url  string
	hops float64
}

// trackerFor maps an upstream to its health tracker.
func (e *Engine) trackerFor(u upstream) *Tracker {
	if u.kind == "edge" {
		return e.cfg.PeerHealth[u.id]
	}
	return e.cfg.OriginHealth[u.id]
}

// upstreams orders the candidate sources for a miss fetch. Internal
// fetches go straight to the origin (recursion prevention). Client-facing
// fetches try the origin and the replica-holding peers that the roster
// knows and the health trackers offer, nearest first by core's rule
// (Placement.NearestSource: the origin wins a tie with a peer, the lower
// index a tie between peers); after the nearest, only the other of the
// origin and the nearest such peer. The origin is kept as last resort
// even while ejected: gating the only remaining source turns a slow
// failure into a guaranteed one, and the attempt doubles as its health
// probe. skipped counts the replica-holding peers the health tracker
// excluded (the health span's evidence).
func (e *Engine) upstreams(pl *core.Placement, site int, internal bool) (ups []upstream, skipped int) {
	ros, from, now := e.roster.Load(), e.cfg.ID, time.Now()
	orig := upstream{kind: "origin", id: site, url: ros.Origins[site]}
	_, orig.hops = pl.NearestSource(from, site, func(int) bool { return false }, true)
	if internal {
		return []upstream{orig}, 0
	}
	peerUp := func(k int) bool {
		ok := k != from && ros.Peers[k] != ""
		if ok && !e.cfg.PeerHealth[k].Candidate(now) {
			ok, skipped = false, skipped+1
		}
		return ok
	}
	k, hops := pl.NearestSource(from, site, peerUp, e.cfg.OriginHealth[site].Candidate(now))
	if k != core.Origin {
		return []upstream{{kind: "edge", id: k, url: ros.Peers[k], hops: hops}, orig}, skipped
	}
	// The origin is nearest, or the last resort; the nearest live peer,
	// if any, backs it up. Asking again re-counts the skipped peers.
	ups, n := []upstream{orig}, skipped
	if k, hops = pl.NearestSource(from, site, peerUp, false); k != core.Origin {
		ups = append(ups, upstream{kind: "edge", id: k, url: ros.Peers[k], hops: hops})
	}
	return ups, n
}

// fetchWithRetry GETs path from u under the retry policy: per-attempt
// timeouts, bounded attempts, exponential backoff with jitter between
// them. The overall outcome — success, or failure after the last
// attempt — is fed to u's health tracker; an ejected upstream is only
// contacted under its half-open probe token. A fetch cut short because
// ctx (the serving request's context) ended says nothing about u: it
// feeds no outcome and hands back a probe token it held.
func (e *Engine) fetchWithRetry(ctx context.Context, u upstream, path string, sp *Span) (body []byte, etag string, err error) {
	down := error(ErrOriginDown)
	if u.kind == "edge" {
		down = ErrPeerDown
	}
	if u.url == "" {
		// An upstream the roster does not know yet is unknown, not
		// failed: no attempt, no backoff, nothing for its tracker.
		sp.Attr("gated", "unknown")
		return nil, "", fmt.Errorf("%w: no address for %s %d yet", down, u.kind, u.id)
	}
	t := e.trackerFor(u)
	ok, probe := t.acquire(time.Now())
	if !ok {
		sp.Attr("gated", "ejected")
		return nil, "", fmt.Errorf("%w: %s %d is ejected", down, u.kind, u.id)
	}
	p := e.cfg.Retry
	for attempt := 1; ; attempt++ {
		usp := sp.Child(obs.SpanUpstream)
		usp.AttrInt("attempt", attempt)
		usp.AttrTarget(u.kind, u.id)
		body, etag, err = e.fetchOnce(ctx, u.url+path, usp)
		usp.AttrOutcome(err)
		usp.End()
		if err == nil || attempt >= p.Attempts || ctx.Err() != nil {
			break
		}
		rsp := sp.Child(obs.SpanRetry)
		rsp.AttrInt("after_attempt", attempt)
		select {
		case <-time.After(p.Backoff(attempt)):
		case <-ctx.Done():
		}
		rsp.End()
	}
	if err != nil && !errors.Is(err, ErrEdgeTimeout) && !errors.Is(err, ErrUpstreamStatus) {
		err = fmt.Errorf("%w: %v", down, err)
	}
	switch {
	case err == nil:
		t.Success()
	case ctx.Err() != nil:
		if probe {
			t.abandonProbe()
		}
	default:
		t.Failure(e.cfg.FailThreshold, e.cfg.EjectFor, time.Now())
	}
	return body, etag, err
}

// fetchOnce performs one upstream attempt under the per-attempt timeout:
// a GET of url, answered 200 with a body. sp (the attempt's upstream
// span) is propagated via the Traceparent header so the remote server's
// spans nest under this attempt.
func (e *Engine) fetchOnce(ctx context.Context, url string, sp *Span) (body []byte, etag string, err error) {
	actx, cancel := context.WithTimeout(ctx, e.cfg.Retry.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set(InternalHeader, "1")
	if hdr := sp.Header(); hdr != "" {
		req.Header.Set(obs.TraceparentHeader, hdr)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		if actx.Err() != nil {
			err = fmt.Errorf("%w: %v", ErrEdgeTimeout, err)
		}
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// What an error answer says is not used, but reading it lets the
		// connection be reused.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, "", fmt.Errorf("%w: %d", ErrUpstreamStatus, resp.StatusCode)
	}
	body, err = readBody(resp, MaxObjectBytes)
	if err != nil {
		class := ErrUpstreamStatus
		if actx.Err() != nil {
			class = ErrEdgeTimeout
		}
		return nil, "", fmt.Errorf("%w: %v", class, err)
	}
	return body, resp.Header.Get("Etag"), nil
}

// learn records that the edge has seen version of key; e.mu is held.
func (e *Engine) learn(key cache.Key, version int) {
	if version > e.learned[key] {
		e.learned[key] = version
	}
}
