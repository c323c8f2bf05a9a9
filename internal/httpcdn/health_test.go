package httpcdn

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
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

func TestFetchTypedErrors(t *testing.T) {
	// A cluster whose edge 0 errors: the client sees ErrBadStatus (the
	// 503 comes from the injector, before the edge handler classifies
	// anything).
	_, _, cl := startHybridCluster(t)
	cl.EdgeInjector(0).Set(fault.ModeError, 0)
	_, err := cl.Fetch(context.Background(), 0, 0, 1)
	if !errors.Is(err, ErrBadStatus) {
		t.Fatalf("injected 503 returned %v, want ErrBadStatus", err)
	}

	// A cancelled client context surfaces as ErrEdgeTimeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = cl.Fetch(ctx, 1, 0, 1)
	if !errors.Is(err, ErrEdgeTimeout) {
		t.Fatalf("cancelled fetch returned %v, want ErrEdgeTimeout", err)
	}

	// A dead edge (closed server) surfaces as ErrEdgeDown.
	cl.edges[2].Close()
	_, err = cl.Fetch(context.Background(), 2, 0, 1)
	if !errors.Is(err, ErrEdgeDown) {
		t.Fatalf("dead edge returned %v, want ErrEdgeDown", err)
	}
}

func TestOriginDownClassPropagates(t *testing.T) {
	sc, p, _ := startHybridCluster(t)

	// A fast retry policy so the test doesn't sit in backoff.
	cfg := DefaultConfig()
	cfg.Retry = RetryPolicy{Attempts: 2, Timeout: 200 * time.Millisecond,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Jitter: 0.1}
	cl, err := Start(sc, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// Pick a (edge, site) pair with no replica anywhere, so the only
	// source is the origin; then kill the origin.
	edge, site := -1, -1
	for j := 0; j < sc.Sys.M() && edge < 0; j++ {
		anyReplica := false
		for i := 0; i < sc.Sys.N(); i++ {
			if p.Has(i, j) {
				anyReplica = true
				break
			}
		}
		if !anyReplica {
			edge, site = 0, j
		}
	}
	if edge < 0 {
		t.Skip("every site replicated in this configuration")
	}
	cl.OriginInjector(site).Set(fault.ModeError, 0)
	_, err = cl.Fetch(context.Background(), edge, site, 1)
	if !errors.Is(err, ErrUpstreamStatus) {
		t.Fatalf("dead origin returned %v, want ErrUpstreamStatus", err)
	}
	// The origin's tracker took the blame.
	if cl.originHealth[site].fails == 0 {
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
