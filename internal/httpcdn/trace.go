package httpcdn

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// Span is the serving-side handle for one obs.Span under construction.
// Every method is nil-safe and the constructors return nil when span
// tracing is disabled, so the serving path carries unconditional span
// calls at the cost of a pointer check — no allocation, no formatting —
// when tracing is off.
type Span struct {
	t     *obs.Tracer
	start time.Time
	s     obs.Span
}

// NewSpan opens a span on tracer t. A nil tracer returns a nil span (and
// every Span method on nil is a no-op), so callers thread one
// unconditional span pipeline whether tracing is on or off. An empty
// trace starts a new trace; a non-empty (trace, parent) pair — typically
// parsed from an incoming Traceparent header — attaches the span to the
// caller's trace so multi-hop requests stitch into one tree.
func NewSpan(t *obs.Tracer, kind, trace, parent string, component, site, object int) *Span {
	if t == nil {
		return nil
	}
	if trace == "" {
		trace = obs.NewTraceID()
	}
	now := time.Now()
	return &Span{
		t:     t,
		start: now,
		s: obs.Span{
			Trace: trace, Span: obs.NewSpanID(), Parent: parent,
			Kind: kind, Edge: component, Site: site, Object: object,
			StartUs: now.UnixMicro(),
		},
	}
}

// Child opens a sub-span of sp with the same trace and request identity.
func (sp *Span) Child(kind string) *Span {
	if sp == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		t:     sp.t,
		start: now,
		s: obs.Span{
			Trace: sp.s.Trace, Span: obs.NewSpanID(), Parent: sp.s.Span,
			Kind: kind, Edge: sp.s.Edge, Site: sp.s.Site, Object: sp.s.Object,
			StartUs: now.UnixMicro(),
		},
	}
}

// Attr records one key/value pair on the span.
func (sp *Span) Attr(key, value string) {
	if sp == nil {
		return
	}
	if sp.s.Attrs == nil {
		sp.s.Attrs = make(map[string]string, 4)
	}
	sp.s.Attrs[key] = value
}

// AttrInt records an integer attribute; the formatting happens after the
// nil check so disabled tracing pays nothing.
func (sp *Span) AttrInt(key string, value int) {
	if sp == nil {
		return
	}
	sp.Attr(key, strconv.Itoa(value))
}

// AttrTarget records the "kind:id" of an upstream component.
func (sp *Span) AttrTarget(kind string, id int) {
	if sp == nil {
		return
	}
	sp.Attr("target", kind+":"+strconv.Itoa(id))
}

// AttrFloat records a float attribute with short formatting.
func (sp *Span) AttrFloat(key string, value float64) {
	if sp == nil {
		return
	}
	sp.Attr(key, strconv.FormatFloat(value, 'g', -1, 64))
}

// AttrOutcome records "ok" or the error's wire class.
func (sp *Span) AttrOutcome(err error) {
	if sp == nil {
		return
	}
	if err == nil {
		sp.Attr("outcome", "ok")
	} else {
		sp.Attr("outcome", "error:"+ErrorClass(err))
	}
}

// Header renders the Traceparent value linking downstream work to sp.
func (sp *Span) Header() string {
	if sp == nil {
		return ""
	}
	return obs.Traceparent(sp.s.Trace, sp.s.Span)
}

// End stamps the duration and emits the span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.s.DurUs = int64(time.Since(sp.start) / time.Microsecond)
	sp.t.EmitSpan(sp.s)
}
