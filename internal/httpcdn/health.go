package httpcdn

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// RetryPolicy bounds one upstream fetch: per-attempt timeout, attempt
// count, and exponential backoff with jitter between attempts. The zero
// value means "use the defaults" (3 attempts, 2 s per attempt, 25 ms
// base backoff doubling to a 500 ms cap, ±20 % jitter).
type RetryPolicy struct {
	// Attempts is the maximum number of tries per upstream (≥ 1).
	Attempts int
	// Timeout is the per-attempt deadline. A blackholed peer costs at
	// most Attempts×Timeout instead of hanging the serving path on the
	// client's whole-request timeout.
	Timeout time.Duration
	// BaseBackoff is the sleep before the second attempt; it doubles per
	// attempt up to MaxBackoff.
	BaseBackoff, MaxBackoff time.Duration
	// Jitter is the ± fraction applied to each backoff so synchronized
	// retries from many edges don't stampede a recovering component.
	Jitter float64
}

// WithDefaults fills unset fields.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Timeout <= 0 {
		p.Timeout = 2 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	}
	return p
}

// Backoff is the sleep before attempt number attempt (1-based count of
// failures so far): BaseBackoff·2^(attempt-1) capped at MaxBackoff,
// jittered ±Jitter. Jitter is the one intentionally nondeterministic
// number in the package — it desynchronizes real retries and never
// affects results, only timing.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseBackoff << (attempt - 1)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	j := 1 + p.Jitter*(2*rand.Float64()-1)
	return time.Duration(float64(d) * j)
}

// DefaultFailThreshold and DefaultEjectFor are Config.FailThreshold's
// and Config.EjectFor's defaults, which the load generator's trackers use.
const DefaultFailThreshold, DefaultEjectFor = 3, 2 * time.Second

// Tracker is the passive health state of one upstream component. It is
// driven entirely by fetch outcomes — no active pinger — through the
// classic consecutive-failure ejection / half-open probe state machine:
//
//	healthy --(FailThreshold consecutive failures)--> ejected
//	ejected --(EjectFor elapsed)--> half-open: exactly one probe passes
//	probe success --> healthy (readmitted); probe failure --> ejected again
type Tracker struct {
	mu      sync.Mutex
	fails   int
	ejected bool
	probing bool
	until   time.Time

	ejections, readmissions int64

	// Registry handles, nil on a zero-value tracker.
	ejectCtr, readmitCtr *obs.Counter
}

// NewTracker returns a healthy tracker that exports its ejections,
// readmissions and current state through reg under (kind, id) labels.
func NewTracker(reg *obs.Registry, kind string, id int) *Tracker {
	l := obs.Labels{"kind": kind, "id": strconv.Itoa(id)}
	t := &Tracker{
		ejectCtr: reg.Counter("cdn_health_ejections_total",
			"Components ejected by the health tracker.", l),
		readmitCtr: reg.Counter("cdn_health_readmissions_total",
			"Ejected components readmitted after a successful probe.", l),
	}
	reg.GaugeFunc("cdn_health_ejected",
		"1 while the component is ejected from redirection.", l,
		func() float64 {
			if t.IsEjected() {
				return 1
			}
			return 0
		})
	return t
}

// Candidate reports whether the component may be offered traffic now:
// healthy, or ejected with the half-open window open and no probe in
// flight. It consumes nothing — selection may consider a component and
// then not fetch from it.
func (t *Tracker) Candidate(now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.ejected || (!t.probing && !now.Before(t.until))
}

// AcquireProbe gates the actual fetch: healthy components always pass;
// an ejected one passes exactly once per half-open window (the probe),
// and concurrent fetches see false until that probe's outcome lands.
func (t *Tracker) AcquireProbe(now time.Time) bool {
	ok, _ := t.acquire(now)
	return ok
}

// acquire is AcquireProbe that also reports whether the pass is the
// half-open probe token, which its holder must settle: Success, Failure
// or abandonProbe.
func (t *Tracker) acquire(now time.Time) (ok, probe bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.ejected {
		return true, false
	}
	if t.probing || now.Before(t.until) {
		return false, false
	}
	t.probing = true
	return true, true
}

// abandonProbe hands back a probe token without a verdict (the fetch was
// cut short by its own client): the component stays ejected and the
// next fetch may probe it.
func (t *Tracker) abandonProbe() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probing = false
}

// Success records a successful fetch, readmitting an ejected component.
func (t *Tracker) Success() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fails = 0
	if t.ejected {
		t.ejected, t.probing = false, false
		t.readmissions++
		if t.readmitCtr != nil {
			t.readmitCtr.Inc()
		}
	}
}

// Failure records a failed fetch; it ejects after threshold consecutive
// failures and re-ejects on a failed half-open probe. It reports whether
// this call flipped the component from healthy to ejected.
func (t *Tracker) Failure(threshold int, ejectFor time.Duration, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fails++
	if t.ejected {
		// A failed probe (or a straggling in-flight fetch): push the
		// next probe window out, stay ejected.
		t.until = now.Add(ejectFor)
		t.probing = false
		return false
	}
	if t.fails < threshold {
		return false
	}
	t.ejected = true
	t.until = now.Add(ejectFor)
	t.ejections++
	if t.ejectCtr != nil {
		t.ejectCtr.Inc()
	}
	return true
}

// Snapshot renders the state for HealthReport.
func (t *Tracker) Snapshot(kind string, id int, now time.Time) HealthStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := HealthStatus{
		Kind:                kind,
		ID:                  id,
		State:               "healthy",
		ConsecutiveFailures: t.fails,
		Ejections:           t.ejections,
		Readmissions:        t.readmissions,
	}
	if t.ejected {
		s.State = "ejected"
		if t.probing || !now.Before(t.until) {
			s.State = "probing"
		} else {
			s.RetryInMs = t.until.Sub(now).Milliseconds()
		}
	}
	return s
}

// IsEjected reports the raw ejected flag (half-open still counts as
// ejected until a probe succeeds) — the view the control plane uses to
// exclude a server from placement.
func (t *Tracker) IsEjected() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ejected
}

// HealthStatus is one component's externally visible health.
type HealthStatus struct {
	Kind                string `json:"kind"` // "edge" or "origin"
	ID                  int    `json:"id"`
	State               string `json:"state"` // healthy | ejected | probing
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Ejections           int64  `json:"ejections"`
	Readmissions        int64  `json:"readmissions"`
	// RetryInMs is how long until the next half-open probe (ejected
	// components only).
	RetryInMs int64 `json:"retry_in_ms,omitempty"`
}

// HealthReport is the /debug/health payload.
type HealthReport struct {
	Edges   []HealthStatus `json:"edges"`
	Origins []HealthStatus `json:"origins"`
}
