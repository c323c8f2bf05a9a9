package sim

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/workload"
)

// emitSimSpans renders measured request k — served from source after
// hops redirect hops, in rtMs — as a virtual-time span tree in the
// schema the HTTP cluster writes, so cmd/cdntrace reads both: a serve
// root covering the modelled response time, plus an upstream child
// covering the redirect hops when the request travelled. Virtual time
// places request k at k ms (StartUs = k*1000); durations are the latency
// model's, in microseconds. Each call draws the next request id from the
// tracer and derives every ID from it, so the sequential and parallel
// runners — which fold requests in the same global order — write
// byte-identical spans.
//
// The serve span is also the replay record SpanSource reads back, so it
// carries what a request holds beyond its edge, site and object — see
// serveAttrs. Callers gate on cfg.Tracer != nil, keeping the hot loop
// allocation-free when tracing is off.
func emitSimSpans(cfg *Config, k int, req *workload.Request, source string, hops, rtMs float64) {
	seed := uint64(cfg.Tracer.NextID())
	trace := obs.DeterministicTraceID(seed)
	root := obs.DeterministicSpanID(2 * seed)
	startUs := int64(k) * 1000
	cfg.Tracer.EmitSpan(obs.Span{
		Trace: trace, Span: root, Kind: obs.SpanServe,
		Edge: req.Server, Site: req.Site, Object: req.Object,
		StartUs: startUs,
		DurUs:   int64(rtMs * 1000),
		Attrs:   serveAttrs(req, source),
	})
	if hops > 0 {
		// The redirected fraction: the upstream fetch begins after the
		// first hop and lasts the per-hop delay times the path length.
		cfg.Tracer.EmitSpan(obs.Span{
			Trace: trace, Span: obs.DeterministicSpanID(2*seed + 1), Parent: root,
			Kind: obs.SpanUpstream,
			Edge: req.Server, Site: req.Site, Object: req.Object,
			StartUs: startUs + int64(cfg.FirstHopMs*1000),
			DurUs:   int64(cfg.PerHopMs * hops * 1000),
			Attrs: map[string]string{
				"target":  source,
				"hops":    strconv.FormatFloat(hops, 'g', -1, 64),
				"outcome": "ok",
			},
		})
	}
}

// The serve-span attrs that make a span a replayable request. Each is
// written only where the request differs from a static catalog's
// cacheable request, so a λ = 0 static run's trace has none of them.
const (
	attrCacheable  = "cacheable"  // "0": the λ fraction, bypassing caches
	attrGeneration = "generation" // the catalog generation asked for, when not 0
	attrPerished   = "perished"   // "1": withdrawn content, a 404 at the origin
)

// serveAttrs is the serve span's attrs for req served from source.
func serveAttrs(req *workload.Request, source string) map[string]string {
	attrs := map[string]string{"source": source, "outcome": "ok"}
	if !req.Cacheable {
		attrs[attrCacheable] = "0"
	}
	if req.Generation != 0 {
		attrs[attrGeneration] = strconv.Itoa(req.Generation)
	}
	if req.Perished {
		attrs[attrPerished] = "1"
	}
	return attrs
}
