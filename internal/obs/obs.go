// Package obs is the repo's dependency-free observability layer:
// atomic counters, gauges and fixed-bucket latency histograms collected
// in a Registry that renders both the Prometheus text exposition format
// (/metrics) and expvar-style JSON (/debug/vars), plus a JSONL span
// tracer shared by the HTTP CDN and the trace-driven simulator.
//
// The paper's evaluation (§5–6) rests on comparing the hybrid
// placement's *predicted* cost and hit ratios (Eqs. (1)–(2)) against
// what a system actually serves. The simulator and the HTTP cluster
// therefore write one span schema — a serve span per request at its
// edge (site/object, source, outcome) with child spans for the trip a
// miss makes upstream — so one analysis reads either, and every metric
// is cheap enough (single atomic op) to stay always-on in the hot path.
//
// Only the standard library is used; nothing here pulls in a
// third-party dependency.
package obs

// Canonical request-source values shared by the HTTP CDN, the simulator
// and the serve span's "source" attribute.
const (
	SourceReplica = "replica" // served by a local site replica
	SourceCache   = "cache"   // served from the edge's LRU cache
	SourcePeer    = "peer"    // fetched from another CDN server (SN)
	SourceOrigin  = "origin"  // fetched from the site's origin server
)

// Sources lists the canonical source values in display order.
var Sources = []string{SourceReplica, SourceCache, SourcePeer, SourceOrigin}
