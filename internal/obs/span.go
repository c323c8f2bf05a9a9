package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Span kinds emitted by the HTTP CDN and the simulator. A span's kind
// names the operation it timed; cmd/cdntrace aggregates latency
// quantiles per kind and reconstructs trace trees from the parent
// links.
const (
	// SpanServe is the root span of one request at an edge server
	// (internal edge-to-edge fetches open their own serve span as a
	// child of the calling edge's upstream span, stitching multi-hop
	// requests into one trace).
	SpanServe = "serve"
	// SpanHealth is the upstream-selection consult: which candidate
	// sources the passive health tracker offered and which ejected
	// components were skipped.
	SpanHealth = "health"
	// SpanFailover is one candidate source tried on a miss fetch — the
	// whole bounded-retry interaction with that one upstream. Hop 0 is
	// the preferred source; hops ≥ 1 are failovers after its failure.
	SpanFailover = "failover"
	// SpanUpstream is one HTTP attempt against an upstream (a single
	// round-trip under the per-attempt timeout).
	SpanUpstream = "upstream"
	// SpanRetry is the backoff wait between two attempts at the same
	// upstream — pure retry overhead on the serving path.
	SpanRetry = "retry"
	// SpanOrigin is the origin server handling one fetch.
	SpanOrigin = "origin"
	// SpanClient is a load generator's root span: one client request
	// from send to last body byte. The program never writes it (it is
	// not in SpanKinds, so the per-kind tables leave it out), but
	// ValidateSpan accepts it, and a serve span beneath it answers a
	// client.
	SpanClient = "client"
)

// SpanKinds lists the canonical span kinds in display order.
var SpanKinds = []string{SpanServe, SpanHealth, SpanFailover, SpanUpstream, SpanRetry, SpanOrigin}

// Span is one timed operation in a trace, serialized as one JSONL
// record; the HTTP cluster and the simulator write the same schema.
// Trace and span IDs use the W3C trace-context lengths — 32 and 16
// lowercase hex digits — so the Traceparent header value is a direct
// concatenation.
type Span struct {
	// Trace identifies the request tree this span belongs to; every
	// span of one client request shares it, across servers.
	Trace string `json:"trace"`
	// Span is this span's unique ID; Parent is the ID of the enclosing
	// span ("" for a root).
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	// Kind is one of the Span* constants.
	Kind string `json:"kind"`
	// Edge is the component recording the span: the edge server ID, or
	// the site ID for SpanOrigin.
	Edge int `json:"edge"`
	// Site and Object identify the requested web object.
	Site   int `json:"site"`
	Object int `json:"object"`
	// StartUs is the span's start time in microseconds — wall-clock
	// Unix time in the HTTP cluster, virtual time in the simulator.
	StartUs int64 `json:"start_us"`
	// DurUs is the span's duration in microseconds.
	DurUs int64 `json:"dur_us"`
	// Attrs carries kind-specific detail: target ("edge:3"/"origin:2"),
	// hop, attempt, outcome, source, skipped-ejected counts, ...
	Attrs map[string]string `json:"attrs,omitempty"`
}

// EndUs is the span's end time in microseconds.
func (s Span) EndUs() int64 { return s.StartUs + s.DurUs }

// idState seeds span/trace ID generation: an atomic counter mixed
// through splitmix64, so IDs are unique per process, cheap (no locks,
// no crypto) and never all-zero.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano()) | 1) }

// splitmix64 is the standard 64-bit finalizer; good enough dispersion
// for trace IDs that only need uniqueness, not unpredictability.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const hexDigits = "0123456789abcdef"

// hex64 renders v as 16 lowercase hex digits.
func hex64(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// NewTraceID returns a fresh 32-hex-digit trace ID.
func NewTraceID() string {
	v := idState.Add(1)
	return hex64(splitmix64(v)) + hex64(splitmix64(v^0xdeadbeefcafef00d))
}

// NewSpanID returns a fresh 16-hex-digit span ID.
func NewSpanID() string {
	return hex64(splitmix64(idState.Add(1)))
}

// DeterministicTraceID derives a 32-hex trace ID from a seed — the
// simulator's virtual-time traces use the request ID so sequential and
// parallel runs emit byte-identical spans.
func DeterministicTraceID(seed uint64) string {
	return hex64(splitmix64(seed)) + hex64(splitmix64(^seed))
}

// DeterministicSpanID derives a 16-hex span ID from a seed.
func DeterministicSpanID(seed uint64) string {
	return hex64(splitmix64(seed * 0x9e3779b97f4a7c15))
}

// TraceparentHeader is the HTTP header propagating trace context
// between CDN components, in the W3C trace-context format.
const TraceparentHeader = "Traceparent"

// Traceparent renders the header value "00-<trace>-<span>-01" linking a
// downstream request to the given span.
func Traceparent(trace, span string) string {
	return "00-" + trace + "-" + span + "-01"
}

// ParseTraceparent extracts (trace, parent-span) from a traceparent
// header value; ok is false for missing or malformed values. As W3C
// Trace Context requires, the flags must be two lowercase hex digits and
// an all-zero trace or parent ID is invalid — adopting one would stitch
// every request that sent it into one shared trace.
func ParseTraceparent(v string) (trace, span string, ok bool) {
	// "00-" + 32 + "-" + 16 + "-01" = 55 bytes.
	if len(v) != 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", false
	}
	trace, span = v[3:35], v[36:52]
	if !isHex(trace) || !isHex(span) || !isHex(v[53:55]) || allZero(trace) || allZero(span) {
		return "", "", false
	}
	return trace, span, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// spanProbe tells a span record from any other JSON object: a span
// record carries a "span" field, even an empty one.
type spanProbe struct {
	Span *string `json:"span"`
}

// ReadTrace parses a JSONL span stream — the inverse of EmitSpan, for
// cmd/cdntrace and tests. A record without a "span" field is not part of
// the schema and is an error.
func ReadTrace(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	for rec := 1; ; rec++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return spans, nil
			}
			return spans, fmt.Errorf("obs: trace record %d: %w", rec, err)
		}
		var probe spanProbe
		if err := json.Unmarshal(raw, &probe); err != nil {
			return spans, fmt.Errorf("obs: trace record %d: %w", rec, err)
		}
		if probe.Span == nil {
			return spans, fmt.Errorf("obs: trace record %d is not a span (no \"span\" field)", rec)
		}
		var s Span
		if err := json.Unmarshal(raw, &s); err != nil {
			return spans, fmt.Errorf("obs: trace record %d: %w", rec, err)
		}
		spans = append(spans, s)
	}
}

// ValidateSpan reports a schema violation in one span record, or nil.
// cmd/cdntrace -check runs every record through it. A kind is valid if
// it is in SpanKinds or is SpanClient, the load generator's root.
func ValidateSpan(s Span) error {
	switch {
	case len(s.Trace) != 32 || !isHex(s.Trace):
		return fmt.Errorf("obs: span trace ID %q is not 32 hex digits", s.Trace)
	case len(s.Span) != 16 || !isHex(s.Span):
		return fmt.Errorf("obs: span ID %q is not 16 hex digits", s.Span)
	case s.Parent != "" && (len(s.Parent) != 16 || !isHex(s.Parent)):
		return fmt.Errorf("obs: span parent ID %q is not 16 hex digits", s.Parent)
	case s.Kind == "":
		return fmt.Errorf("obs: span %s has no kind", s.Span)
	case s.DurUs < 0:
		return fmt.Errorf("obs: span %s has negative duration %d", s.Span, s.DurUs)
	}
	if s.Kind == SpanClient {
		return nil
	}
	for _, k := range SpanKinds {
		if s.Kind == k {
			return nil
		}
	}
	return fmt.Errorf("obs: span %s has unknown kind %q", s.Span, s.Kind)
}
