package httpcdn

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

func TestTrackerStateMachine(t *testing.T) {
	tr := &Tracker{}
	now := time.Now()
	const threshold = 3
	const ejectFor = 50 * time.Millisecond

	if !tr.Candidate(now) || !tr.AcquireProbe(now) {
		t.Fatal("fresh tracker not available")
	}
	// Failures below the threshold keep it healthy.
	for i := 0; i < threshold-1; i++ {
		if tr.Failure(threshold, ejectFor, now) {
			t.Fatal("ejected before threshold")
		}
	}
	if !tr.Candidate(now) {
		t.Fatal("sub-threshold failures ejected the component")
	}
	// A success resets the streak.
	tr.Success()
	for i := 0; i < threshold-1; i++ {
		tr.Failure(threshold, ejectFor, now)
	}
	if tr.IsEjected() {
		t.Fatal("streak not reset by success")
	}
	// The threshold-th consecutive failure flips it.
	if !tr.Failure(threshold, ejectFor, now) {
		t.Fatal("threshold failure did not report the flip")
	}
	if !tr.IsEjected() || tr.Candidate(now) {
		t.Fatal("ejected component still offered traffic")
	}
	if tr.AcquireProbe(now) {
		t.Fatal("probe granted before the eject window elapsed")
	}

	// Half-open: after EjectFor, exactly one probe passes.
	later := now.Add(ejectFor)
	if !tr.Candidate(later) {
		t.Fatal("half-open component not offered as candidate")
	}
	if !tr.AcquireProbe(later) {
		t.Fatal("first probe denied")
	}
	if tr.AcquireProbe(later) {
		t.Fatal("second concurrent probe granted")
	}
	if tr.Candidate(later) {
		t.Fatal("candidate while a probe is in flight")
	}
	// Failed probe: re-ejected, window extended.
	tr.Failure(threshold, ejectFor, later)
	if tr.AcquireProbe(later.Add(ejectFor / 2)) {
		t.Fatal("probe granted inside the extended window")
	}
	// Successful probe after the next window readmits.
	again := later.Add(2 * ejectFor)
	if !tr.AcquireProbe(again) {
		t.Fatal("second-window probe denied")
	}
	tr.Success()
	if tr.IsEjected() || !tr.Candidate(again) {
		t.Fatal("successful probe did not readmit")
	}
	if tr.ejections != 1 || tr.readmissions != 1 {
		t.Fatalf("counters: %d ejections, %d readmissions", tr.ejections, tr.readmissions)
	}

	s := tr.Snapshot("edge", 0, again)
	if s.State != "healthy" || s.Ejections != 1 || s.Readmissions != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}

// TestFetchTypedErrors pins Get's classes for failures of the server it
// asks, before any edge has classified anything.
func TestFetchTypedErrors(t *testing.T) {
	sc := smallScenario(t)
	var versions Versions
	inj := fault.NewInjector()
	srv := httptest.NewServer(inj.Wrap(NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
	defer srv.Close()

	// An injected 503 carries no X-Cdn-Error class: ErrBadStatus.
	inj.Set(fault.ModeError, 0)
	_, err := Get(context.Background(), http.DefaultClient, srv.URL, 0, 1)
	if !errors.Is(err, ErrBadStatus) {
		t.Fatalf("injected 503 returned %v, want ErrBadStatus", err)
	}
	inj.Set(fault.ModeOff, 0)

	// A cancelled client context surfaces as ErrEdgeTimeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Get(ctx, http.DefaultClient, srv.URL, 0, 1)
	if !errors.Is(err, ErrEdgeTimeout) {
		t.Fatalf("cancelled fetch returned %v, want ErrEdgeTimeout", err)
	}

	// A dead server surfaces as ErrEdgeDown.
	srv.Close()
	_, err = Get(context.Background(), http.DefaultClient, srv.URL, 0, 1)
	if !errors.Is(err, ErrEdgeDown) {
		t.Fatalf("dead edge returned %v, want ErrEdgeDown", err)
	}
}

// TestOriginDownClassPropagates: a miss whose only source, the origin,
// answers 503 reaches the client as ErrUpstreamStatus, and the origin's
// tracker takes the blame.
func TestOriginDownClassPropagates(t *testing.T) {
	sc := smallScenario(t)
	var versions Versions
	inj := fault.NewInjector()
	inj.Set(fault.ModeError, 0)
	// A fast retry policy so the test doesn't sit in backoff.
	cfg := Config{Retry: RetryPolicy{Attempts: 2, Timeout: 200 * time.Millisecond,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Jitter: 0.1}}
	e, replicated, origin := testEngine(t, sc, cfg, 64<<20,
		listen(t, inj.Wrap(NewOrigin(sc, &versions, obs.NewRegistry(), nil))))
	_, err := Get(context.Background(), http.DefaultClient, listen(t, e), (replicated+1)%sc.Sys.M(), 1)
	if !errors.Is(err, ErrUpstreamStatus) {
		t.Fatalf("dead origin returned %v, want ErrUpstreamStatus", err)
	}
	if origin.fails == 0 {
		t.Fatal("origin failure not recorded")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.Attempts != 3 || p.Timeout != 2*time.Second {
		t.Fatalf("defaults %+v", p)
	}
	for attempt := 1; attempt < 10; attempt++ {
		d := p.Backoff(attempt)
		lo := time.Duration(float64(p.MaxBackoff) * (1 + p.Jitter))
		if d <= 0 || d > lo {
			t.Fatalf("backoff(%d) = %v out of range", attempt, d)
		}
	}
}
