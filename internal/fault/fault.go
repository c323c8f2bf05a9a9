// Package fault models component failures for the CDN, in both worlds
// the repository runs in:
//
//   - Schedule is a deterministic, seedable sequence of crash / recover /
//     slow events over virtual time (request indices) that the simulator
//     replays (sim.RunWithSchedule). It generalizes the static "dead
//     before the run starts" model (Crashes) to mid-run churn, the regime
//     the paper's availability argument (§5, Figure 6) is actually
//     about: caches re-absorb demand when replicas vanish.
//
//   - Injector is an HTTP middleware with error / latency / blackhole
//     modes, togglable at runtime, that chaos-tests the live httpcdn
//     cluster: kill an edge mid-load and watch health-checked
//     redirection route around it.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Component identifies what an event acts on.
type Component uint8

// The failable components.
const (
	// Server is a CDN edge server: its replicas and cache vanish while
	// crashed and its client population is re-dispatched to the nearest
	// surviving server.
	Server Component = iota
	// Origin is a site's primary server: while crashed the site is
	// reachable only through surviving replicas or (stale-risk) cached
	// copies.
	Origin
)

// String renders the component for error messages and tables.
func (c Component) String() string {
	switch c {
	case Server:
		return "server"
	case Origin:
		return "origin"
	default:
		return fmt.Sprintf("component(%d)", uint8(c))
	}
}

// Kind is the event type.
type Kind uint8

// The event kinds.
const (
	// Crash takes the component down at the event time.
	Crash Kind = iota
	// Recover brings a crashed component back. A recovered server
	// returns with an empty cache (its storage was lost), which is why
	// availability dips again briefly until the cache re-warms.
	Recover
	// Slow keeps the component up but adds ExtraMs of processing delay
	// to every request it handles, until a later Recover clears it.
	Slow
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one state change of one component at one virtual time.
type Event struct {
	// At is the virtual time in request indices, counted from the first
	// warm-up request of the run (so cfg.Warmup is the first measured
	// request).
	At int
	// Comp and ID name the component.
	Comp Component
	ID   int
	// Kind is what happens.
	Kind Kind
	// ExtraMs is the added per-request delay for Slow events.
	ExtraMs float64
}

// Schedule is an immutable, time-ordered event sequence. Events at equal
// times keep their construction order (stable sort), so a schedule is a
// pure function of its input — the determinism RunWithSchedule builds on.
type Schedule struct {
	events []Event
}

// NewSchedule validates and time-orders the events: each names a known
// component and kind at a non-negative time and id, and only a Slow
// event carries a delay, positive and finite.
func NewSchedule(events ...Event) (*Schedule, error) {
	es := append([]Event(nil), events...)
	for _, e := range es {
		if e.At < 0 {
			return nil, fmt.Errorf("fault: event at negative time %d", e.At)
		}
		if e.Comp != Server && e.Comp != Origin {
			return nil, fmt.Errorf("fault: unknown %s", e.Comp)
		}
		if e.ID < 0 {
			return nil, fmt.Errorf("fault: %s id %d out of range", e.Comp, e.ID)
		}
		switch e.Kind {
		case Crash, Recover:
			if e.ExtraMs != 0 {
				return nil, fmt.Errorf("fault: %s event with ExtraMs %v", e.Kind, e.ExtraMs)
			}
		case Slow:
			if !(e.ExtraMs > 0) || math.IsInf(e.ExtraMs, 1) {
				return nil, fmt.Errorf("fault: slow event with ExtraMs %v", e.ExtraMs)
			}
		default:
			return nil, fmt.Errorf("fault: unknown event kind %d", e.Kind)
		}
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].At < es[j].At })
	return &Schedule{events: es}, nil
}

// MustSchedule is NewSchedule for known-good event lists.
func MustSchedule(events ...Event) *Schedule {
	s, err := NewSchedule(events...)
	if err != nil {
		panic(err)
	}
	return s
}

// Events returns the time-ordered events. Callers must not modify the
// returned slice.
func (s *Schedule) Events() []Event { return s.events }

// Len is the event count.
func (s *Schedule) Len() int { return len(s.events) }

// MaxID returns the largest component id referenced for comp, or -1.
func (s *Schedule) MaxID(comp Component) int {
	max := -1
	for _, e := range s.events {
		if e.Comp == comp && e.ID > max {
			max = e.ID
		}
	}
	return max
}

// Crashes builds the degenerate schedule of a static failure model:
// every listed component crashes at time at and never recovers.
// RunWithSchedule over Crashes(warmup, ...) is the availability
// experiment's "steady state, then k components died" replay.
func Crashes(at int, servers, origins []int) *Schedule {
	var events []Event
	for _, i := range servers {
		events = append(events, Event{At: at, Comp: Server, ID: i, Kind: Crash})
	}
	for _, j := range origins {
		events = append(events, Event{At: at, Comp: Origin, ID: j, Kind: Crash})
	}
	return MustSchedule(events...)
}

// RandomConfig parameterizes a random churn draw.
type RandomConfig struct {
	// Servers and Origins are the population sizes.
	Servers, Origins int
	// ServerCrashes / OriginCrashes are how many distinct components of
	// each kind crash.
	ServerCrashes, OriginCrashes int
	// CrashFrom/CrashTo bound the uniform crash-time window (virtual
	// time, inclusive-exclusive).
	CrashFrom, CrashTo int
	// Downtime is how long a crashed component stays down before its
	// Recover event; 0 means it never recovers.
	Downtime int
}

// Random draws a churn schedule deterministically from r: which
// components crash (distinct, via Perm) and when (uniform in the crash
// window). Equal seeds give bit-identical schedules.
func Random(cfg RandomConfig, r *xrand.Source) (*Schedule, error) {
	switch {
	case cfg.ServerCrashes < 0 || cfg.OriginCrashes < 0 || cfg.Downtime < 0:
		return nil, fmt.Errorf("fault: negative churn parameter")
	case cfg.ServerCrashes > cfg.Servers:
		return nil, fmt.Errorf("fault: %d server crashes among %d servers", cfg.ServerCrashes, cfg.Servers)
	case cfg.OriginCrashes > cfg.Origins:
		return nil, fmt.Errorf("fault: %d origin crashes among %d origins", cfg.OriginCrashes, cfg.Origins)
	case cfg.CrashFrom < 0 || cfg.CrashTo < cfg.CrashFrom:
		return nil, fmt.Errorf("fault: crash window [%d,%d)", cfg.CrashFrom, cfg.CrashTo)
	}
	at := func() int {
		if cfg.CrashTo == cfg.CrashFrom {
			return cfg.CrashFrom
		}
		return cfg.CrashFrom + r.Intn(cfg.CrashTo-cfg.CrashFrom)
	}
	var events []Event
	add := func(comp Component, id int) {
		t := at()
		events = append(events, Event{At: t, Comp: comp, ID: id, Kind: Crash})
		if cfg.Downtime > 0 {
			events = append(events, Event{At: t + cfg.Downtime, Comp: comp, ID: id, Kind: Recover})
		}
	}
	if cfg.ServerCrashes > 0 {
		perm := r.Perm(cfg.Servers)
		for _, i := range perm[:cfg.ServerCrashes] {
			add(Server, i)
		}
	}
	if cfg.OriginCrashes > 0 {
		perm := r.Perm(cfg.Origins)
		for _, j := range perm[:cfg.OriginCrashes] {
			add(Origin, j)
		}
	}
	return NewSchedule(events...)
}
