package httpcdn

import "errors"

// Sentinel errors for the serving path, usable with errors.Is. Fetch and
// the edge-internal upstream fetches wrap these with context (%w), so
// callers branch on failure *class* — timeout vs. dead component vs.
// wrong bytes — instead of matching message strings.
var (
	// ErrEdgeTimeout reports that an upstream fetch exceeded its
	// per-attempt timeout (a hung or blackholed component).
	ErrEdgeTimeout = errors.New("httpcdn: upstream fetch timed out")
	// ErrPeerDown reports that a peer edge could not be reached or
	// answered with an error for every retry attempt.
	ErrPeerDown = errors.New("httpcdn: peer unreachable")
	// ErrEdgeDown reports that the first-hop edge itself could not be
	// reached by the client.
	ErrEdgeDown = errors.New("httpcdn: edge unreachable")
	// ErrOriginDown reports that a site's origin could not be reached or
	// answered with an error for every retry attempt.
	ErrOriginDown = errors.New("httpcdn: origin unreachable")
	// ErrUpstreamStatus reports an unusable answer from an upstream that
	// was reachable: a non-200 status (e.g. an injected 503), or a body
	// over MaxObjectBytes or short of its Content-Length.
	ErrUpstreamStatus = errors.New("httpcdn: unexpected upstream status")
	// ErrBadStatus reports a non-200 answer from the edge to a client
	// fetch that does not carry a more specific X-Cdn-Error class.
	ErrBadStatus = errors.New("httpcdn: edge answered with an error status")
	// ErrNotFound reports a 404: the path is outside the catalog.
	ErrNotFound = errors.New("httpcdn: no such object")
	// ErrCorruptPayload reports a response body that does not match the
	// object's deterministic byte pattern.
	ErrCorruptPayload = errors.New("httpcdn: corrupted payload")
)

// ErrorHeader carries the failure class from Engine.handle to the
// client, so Get can rewrap the matching sentinel on its side of the
// wire.
const ErrorHeader = "X-Cdn-Error"

// ErrorClass names an error's failure class. The first four are the wire
// classes an edge reports in ErrorHeader; the rest only a client sees.
func ErrorClass(err error) string {
	switch {
	case errors.Is(err, ErrEdgeTimeout):
		return "timeout"
	case errors.Is(err, ErrOriginDown):
		return "origin-down"
	case errors.Is(err, ErrPeerDown):
		return "peer-down"
	case errors.Is(err, ErrUpstreamStatus):
		return "upstream-status"
	case errors.Is(err, ErrEdgeDown):
		return "edge-down"
	case errors.Is(err, ErrCorruptPayload):
		return "corrupt-payload"
	case errors.Is(err, ErrNotFound):
		return "not-found"
	case errors.Is(err, ErrBadStatus):
		return "bad-status"
	default:
		return "internal"
	}
}

// ClassError is ErrorClass's inverse on the wire classes: the sentinel
// for one, or nil for anything else.
func ClassError(class string) error {
	switch class {
	case "timeout":
		return ErrEdgeTimeout
	case "origin-down":
		return ErrOriginDown
	case "peer-down":
		return ErrPeerDown
	case "upstream-status":
		return ErrUpstreamStatus
	default:
		return nil
	}
}
