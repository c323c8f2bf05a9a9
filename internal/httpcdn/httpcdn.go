// Package httpcdn materializes the CDN model as real HTTP handlers: an
// edge server per CDN node and an origin for the primary copies. It
// exists to show that the library's placement decisions drive an actual
// content delivery network, not only the trace-driven simulator:
//
//   - an edge that holds a replica of a site serves its objects
//     directly;
//   - otherwise the edge consults its byte-bounded LRU cache;
//   - on a miss it fetches from the nearest replicator (the placement's
//     SN entry — another edge, or the site's origin) over real HTTP,
//     stores the body, and serves it.
//
// Peer fetches carry an internal header so a peer that no longer holds
// the object falls through to the origin instead of recursing through
// the mesh. Object bodies are deterministic byte patterns checked
// end-to-end by the tests.
//
// That discipline is implemented once, by Engine (one edge's serving
// path) and Origin (a primary server's handler). The deployment is
// internal/clusterd's: it puts the two handlers behind real listeners
// and a control plane. Cluster is the test harness — N engines and M
// origins on httptest listeners with a static roster and no control
// plane — that this package's tests, the serving suite's second wiring
// and examples/httpconsistency boot.
//
// The artificial per-hop delay of the paper's latency model (§5.1) can
// be injected to make measured latencies meaningful.
package httpcdn

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Source values reported in the X-Cdn-Source response header (the
// canonical obs schema values).
const (
	SourceReplica = obs.SourceReplica
	SourceCache   = obs.SourceCache
	SourcePeer    = obs.SourcePeer
	SourceOrigin  = obs.SourceOrigin
)

// InternalHeader marks edge-to-edge fetches to prevent recursion.
const InternalHeader = "X-Cdn-Internal"

// Config holds the serving knobs of an Engine (and of every engine of a
// Cluster).
type Config struct {
	// PerHopDelay is the artificial network delay per topology hop,
	// applied by the fetching edge before contacting a remote source
	// (0 for tests; ~1ms/hop makes cdnd's latencies meaningful).
	PerHopDelay time.Duration
	// MaxObjectBytes caps synthetic payload sizes so heavy-tailed
	// catalogs do not ship tens of megabytes over loopback.
	MaxObjectBytes int64
	// RevalidateOnHit enforces strong consistency the way §3.3's
	// server-based invalidation does, but with HTTP's native
	// machinery: every cache hit sends a conditional GET
	// (If-None-Match) to the origin and serves the cached body only
	// on 304 Not Modified. Off = weak consistency (serve cached
	// bodies unconditionally, possibly stale).
	RevalidateOnHit bool
	// Metrics, when non-nil, receives per-edge serve/hit/miss/eviction
	// counters, resident-byte gauges and per-source latency histograms
	// (see DESIGN.md "Observability" for the metric names).
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one JSONL event per edge-served
	// request in the shared obs.Event schema.
	Tracer *obs.Tracer
	// TraceSpans additionally emits obs.Span records to the same Tracer:
	// a root serve span per request with children for the health consult,
	// each failover hop, each upstream attempt and each retry backoff,
	// stitched across servers via the Traceparent header. Ignored when
	// Tracer is nil; off adds nothing to the serving path beyond a nil
	// pointer check.
	TraceSpans bool
	// RequestTap, when non-nil, is invoked once per client-facing
	// request an edge accepts (internal edge-to-edge fetches excluded),
	// before the request is served. The online control plane hangs its
	// demand estimator here; the tap must be safe for concurrent use
	// and fast — it runs on the serving path.
	RequestTap func(edge, site int)
	// Retry bounds every peer/origin fetch: per-attempt timeout plus
	// bounded retries with exponential backoff and jitter. Zero fields
	// take the RetryPolicy defaults.
	Retry RetryPolicy
	// FailThreshold is how many consecutive fetch failures eject a
	// component from redirection (default 3).
	FailThreshold int
	// EjectFor is how long an ejected component sits out before the
	// half-open probe window opens (default 2s).
	EjectFor time.Duration
}

// DefaultConfig returns a zero-delay, 64 KiB-capped configuration.
func DefaultConfig() Config {
	return Config{MaxObjectBytes: 64 << 10}
}

// Cluster is the in-process test harness: one Engine per edge and one
// Origin per site, each behind an httptest listener wrapped in a fault
// injector.
type Cluster struct {
	sc     *scenario.Scenario
	client *http.Client

	engines []*Engine          // one per CDN server
	edges   []*httptest.Server // engines[i]'s listener
	origins []*httptest.Server // one per site

	// edgeHealth / originHealth are the passive per-component health
	// trackers, shared by every engine; edgeInj / originInj the
	// always-present fault injectors (pass-through until Set).
	edgeHealth   []*Tracker
	originHealth []*Tracker
	edgeInj      []*fault.Injector
	originInj    []*fault.Injector

	// versions is the origins' object-version table, which replicas read
	// live.
	versions Versions
}

// ModifyObject bumps an object's version at its origin, invalidating
// every cached copy (under RevalidateOnHit) and changing its payload.
func (c *Cluster) ModifyObject(site, object int) { c.versions.Bump(site, object) }

// Start launches the cluster: origins first, then edges. Always Close a
// started cluster.
func Start(sc *scenario.Scenario, p *core.Placement, cfg Config) (*Cluster, error) {
	if p.System() != sc.Sys {
		return nil, fmt.Errorf("httpcdn: placement belongs to a different system")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	reg, spans := cfg.Metrics, cfg.Tracer
	if !cfg.TraceSpans {
		spans = nil
	}
	c := &Cluster{sc: sc, client: &http.Client{Timeout: 30 * time.Second}}
	var roster Roster
	for j := 0; j < sc.Sys.M(); j++ {
		inj := fault.NewInjector()
		srv := httptest.NewServer(inj.Wrap(NewOrigin(sc, j, cfg.MaxObjectBytes, &c.versions, reg, spans)))
		c.originHealth = append(c.originHealth, NewTracker(reg, "origin", j))
		c.originInj = append(c.originInj, inj)
		c.origins = append(c.origins, srv)
		roster.Origins = append(roster.Origins, srv.URL)
	}
	for i := 0; i < sc.Sys.N(); i++ {
		c.edgeHealth = append(c.edgeHealth, NewTracker(reg, "edge", i))
	}
	for i := 0; i < sc.Sys.N(); i++ {
		e := NewEngine(EngineConfig{
			Config: cfg, ID: i, Scenario: sc, Placement: p, Spans: spans,
			PeerHealth: c.edgeHealth, OriginHealth: c.originHealth,
			LiveVersion: c.versions.Get,
		})
		inj := fault.NewInjector()
		srv := httptest.NewServer(inj.Wrap(e))
		c.engines = append(c.engines, e)
		c.edgeInj = append(c.edgeInj, inj)
		c.edges = append(c.edges, srv)
		roster.Peers = append(roster.Peers, srv.URL)
	}
	for _, e := range c.engines {
		e.SetRoster(roster)
	}
	return c, nil
}

// EdgeInjector returns edge i's fault injector (pass-through until Set):
// the chaos-testing hook that kills, slows or blackholes a live edge.
func (c *Cluster) EdgeInjector(i int) *fault.Injector { return c.edgeInj[i] }

// OriginInjector returns site j's origin fault injector.
func (c *Cluster) OriginInjector(j int) *fault.Injector { return c.originInj[j] }

// Close shuts down every server.
func (c *Cluster) Close() {
	for _, e := range c.engines {
		e.CloseIdleConnections()
	}
	for _, e := range c.edges {
		e.Close()
	}
	for _, o := range c.origins {
		o.Close()
	}
}

// EdgeURL returns the base URL of edge i.
func (c *Cluster) EdgeURL(i int) string { return c.edges[i].URL }

// OriginURL returns the base URL of site j's origin.
func (c *Cluster) OriginURL(j int) string { return c.origins[j].URL }

// Placement returns the placement currently routing requests (the last
// one swapped in, once SwapPlacement has returned).
func (c *Cluster) Placement() *core.Placement { return c.engines[0].Placement() }

// SwapPlacement replaces the live placement, engine by engine (see
// Engine.SetPlacement for what in-flight requests see).
//
// The new placement must describe the same deployment: either built on
// the cluster's own System or on one derived from it via WithDemand
// (same shape and capacities).
func (c *Cluster) SwapPlacement(p *core.Placement) error {
	sys := p.System()
	base := c.sc.Sys
	if sys != base {
		if sys.N() != base.N() || sys.M() != base.M() {
			return fmt.Errorf("httpcdn: swap placement of a %dx%d system into a %dx%d cluster",
				sys.N(), sys.M(), base.N(), base.M())
		}
		for i := 0; i < base.N(); i++ {
			if sys.Capacity[i] != base.Capacity[i] {
				return fmt.Errorf("httpcdn: swap placement with different capacity at server %d", i)
			}
		}
	}
	for _, e := range c.engines {
		e.SetPlacement(p)
	}
	return nil
}

// EdgeStats returns a snapshot of edge i's counters.
func (c *Cluster) EdgeStats(i int) EdgeStats { return c.engines[i].Stats() }

// Fetch issues a client request for (site, object) at the given
// first-hop edge and verifies the payload; errors are Get's.
func (c *Cluster) Fetch(ctx context.Context, firstHop, site, object int) (FetchResult, error) {
	return Get(ctx, c.client, c.EdgeURL(firstHop), site, object)
}
