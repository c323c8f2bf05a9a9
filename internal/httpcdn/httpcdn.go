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
// A cached copy is served as it is, stale or not (weak consistency), and
// every body is capped at MaxObjectBytes.
//
// Peer fetches carry an internal header so a peer that no longer holds
// the object falls through to the origin instead of recursing through
// the mesh. Object bodies are deterministic byte patterns checked
// end-to-end by the tests.
//
// That discipline is implemented once, by Engine (one edge's serving
// path) and Origin (a primary server's handler). The deployment is
// internal/clusterd's: it puts the two handlers behind real listeners
// and a control plane.
//
// The artificial per-hop delay of the paper's latency model (§5.1) can
// be injected to make measured latencies meaningful.
package httpcdn

import (
	"time"

	"repro/internal/obs"
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

// MaxObjectBytes caps every synthetic payload, at the origin and at the
// edge alike, so heavy-tailed catalogs do not ship tens of megabytes over
// loopback; an edge refuses an upstream body past it.
const MaxObjectBytes = 64 << 10

// Config holds the serving knobs of an Engine.
type Config struct {
	// PerHopDelay is the artificial network delay per topology hop,
	// applied by the fetching edge before contacting a remote source
	// (0 for tests; ~1ms/hop makes cdnd's latencies meaningful).
	PerHopDelay time.Duration
	// Metrics, when non-nil, receives per-edge serve/hit/miss/eviction
	// counters, resident-byte gauges and per-source latency histograms
	// (see DESIGN.md "Observability" for the metric names); nil builds a
	// private registry.
	Metrics *obs.Registry
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
