// Package fault injects failures into the live HTTP components: an
// Injector is a middleware with error, latency and blackhole modes,
// togglable at runtime, so a chaos drill can kill an edge or an origin
// mid-load and watch health-checked redirection route around it.
package fault

import (
	"net/http"
	"sync/atomic"
	"time"
)

// Mode is an Injector failure mode.
type Mode int32

// The injector modes.
const (
	// ModeOff passes requests through untouched.
	ModeOff Mode = iota
	// ModeError answers every request with 503 Service Unavailable
	// without invoking the wrapped handler.
	ModeError
	// ModeLatency delays every request by the configured duration, then
	// serves it normally — a "slow" component.
	ModeLatency
	// ModeBlackhole never answers: the handler parks until the client
	// gives up (request context cancellation / timeout). This is the
	// hung-edge case that motivates per-hop timeouts — without them a
	// blackholed peer stalls the whole serving path forever.
	ModeBlackhole
)

// String renders the mode (the -fault-mode flag values).
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeBlackhole:
		return "blackhole"
	default:
		return "unknown"
	}
}

// ParseMode parses a -fault-mode flag value.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "off":
		return ModeOff, true
	case "error":
		return ModeError, true
	case "latency":
		return ModeLatency, true
	case "blackhole":
		return ModeBlackhole, true
	}
	return ModeOff, false
}

// Injector is a runtime-togglable failure middleware for one HTTP
// component. The zero value is a pass-through; Set flips the mode
// atomically, so injection can be driven from a load loop or a test
// while requests are in flight.
type Injector struct {
	mode      atomic.Int32
	latencyNs atomic.Int64
}

// NewInjector returns a pass-through injector.
func NewInjector() *Injector { return &Injector{} }

// Set switches the failure mode; latency applies to ModeLatency only.
func (in *Injector) Set(m Mode, latency time.Duration) {
	in.latencyNs.Store(int64(latency))
	in.mode.Store(int32(m))
}

// Mode returns the current mode.
func (in *Injector) Mode() Mode { return Mode(in.mode.Load()) }

// Wrap returns next behind the injector.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch in.Mode() {
		case ModeError:
			w.Header().Set("X-Cdn-Fault", "error")
			http.Error(w, "fault injected", http.StatusServiceUnavailable)
			return
		case ModeLatency:
			d := time.Duration(in.latencyNs.Load())
			if d > 0 {
				select {
				case <-time.After(d):
				case <-r.Context().Done():
					return
				}
			}
		case ModeBlackhole:
			<-r.Context().Done()
			return
		}
		next.ServeHTTP(w, r)
	})
}
