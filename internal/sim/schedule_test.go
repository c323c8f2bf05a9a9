package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/xrand"
)

func TestScheduleDeterministicForFixedSeed(t *testing.T) {
	sc := smallScenario(51, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	sched := fault.MustSchedule(
		fault.Event{At: cfg.Warmup + 1000, Comp: fault.Server, ID: 0, Kind: fault.Crash},
		fault.Event{At: cfg.Warmup + 9000, Comp: fault.Server, ID: 0, Kind: fault.Recover},
		fault.Event{At: cfg.Warmup + 4000, Comp: fault.Origin, ID: 1, Kind: fault.Crash},
		fault.Event{At: cfg.Warmup + 5000, Comp: fault.Server, ID: 2, Kind: fault.Slow, ExtraMs: 40},
	)
	a, err := RunWithSchedule(context.Background(), sc, p, cfg, sched, xrand.New(52))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWithSchedule(context.Background(), sc, p, cfg, sched, xrand.New(52))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
	if a.EventsApplied != 4 {
		t.Fatalf("EventsApplied = %d, want 4", a.EventsApplied)
	}
	// 4 measured-window events at distinct times → 5 phases.
	if len(a.Phases) != 5 {
		t.Fatalf("got %d phases, want 5: %+v", len(a.Phases), a.Phases)
	}
	// Phases tile [Warmup, Warmup+Requests) exactly and their counters
	// sum to the run-wide ones.
	var reqs int
	var unavail int64
	from := cfg.Warmup
	for _, ph := range a.Phases {
		if ph.From != from {
			t.Fatalf("phase gap: From %d, want %d", ph.From, from)
		}
		from = ph.To
		reqs += ph.Requests
		unavail += ph.Unavailable
	}
	if from != cfg.Warmup+cfg.Requests {
		t.Fatalf("phases end at %d, want %d", from, cfg.Warmup+cfg.Requests)
	}
	if reqs != a.Requests || unavail != a.Unavailable {
		t.Fatalf("phase sums (%d, %d) != totals (%d, %d)", reqs, unavail, a.Requests, a.Unavailable)
	}
}

// TestScheduleDegenerateReproducesRunWithFailures pins fault.Crashes to
// the static failure model RunWithFailures used to replay: the
// degenerate schedule's run-wide counters are staticFailuresOracle's.
func TestScheduleDegenerateReproducesRunWithFailures(t *testing.T) {
	sc := smallScenario(53, 0)
	hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, useCache := range []bool{true, false} {
		cfg := fastConfig(useCache)
		cfg.KeepResponseTimes = false
		r := xrand.New(54)
		servers, origins := r.Perm(sc.Sys.N())[:2], r.Perm(sc.Sys.M())[:3]
		want, err := staticFailuresOracle(context.Background(), sc, hyb.Placement, cfg, servers, origins, xrand.New(55))
		if err != nil {
			t.Fatal(err)
		}
		sched := fault.Crashes(cfg.Warmup, servers, origins)
		got, err := RunWithSchedule(context.Background(), sc, hyb.Placement, cfg, sched, xrand.New(55))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.FailureMetrics, *want) {
			t.Errorf("useCache=%v: degenerate schedule diverged from the static oracle:\nschedule: %+v\nstatic:   %+v",
				useCache, got.FailureMetrics, *want)
		}
	}
}

// TestScheduleHealthyMatchesEmptySchedule pins RunWithSchedule's own
// serve loop, on a run with no fault events, to the healthy static
// oracle and to Run: a nil schedule must reproduce Run's mean response
// time and source counters bit for bit.
func TestScheduleHealthyMatchesEmptySchedule(t *testing.T) {
	for _, lambda := range []float64{0, 0.1} {
		sc := smallScenario(3, lambda)
		hyb, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
			Specs:          sc.Work.Specs(),
			AvgObjectBytes: sc.Work.AvgObjectBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := hyb.Placement
		for _, useCache := range []bool{true, false} {
			t.Run(fmt.Sprintf("lambda=%v/cache=%v", lambda, useCache), func(t *testing.T) {
				cfg := fastConfig(useCache)
				cfg.KeepResponseTimes = false
				want, err := staticFailuresOracle(context.Background(), sc, p, cfg, nil, nil, xrand.New(9))
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunWithSchedule(context.Background(), sc, p, cfg, nil, xrand.New(9))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.FailureMetrics, *want) {
					t.Fatalf("nil schedule diverged from the healthy static oracle:\n%+v\n%+v", got.FailureMetrics, *want)
				}
				if len(got.Phases) != 1 || got.EventsApplied != 0 {
					t.Fatalf("healthy run: %d phases, %d events", len(got.Phases), got.EventsApplied)
				}
				run, err := Run(context.Background(), sc, p, cfg, xrand.New(9))
				if err != nil {
					t.Fatal(err)
				}
				if got.MeanRTMs != run.MeanRTMs || got.LocalReplica != run.LocalReplica ||
					got.CacheHits != run.CacheHits || got.CacheMisses != run.CacheMisses {
					t.Fatalf("nil schedule diverged from Run: mean %v local %d hits %d misses %d, Run: mean %v local %d hits %d misses %d",
						got.MeanRTMs, got.LocalReplica, got.CacheHits, got.CacheMisses,
						run.MeanRTMs, run.LocalReplica, run.CacheHits, run.CacheMisses)
				}
				if got.LocalReplica == 0 {
					t.Fatal("hybrid placement served nothing from a local replica")
				}
			})
		}
	}
}

func TestScheduleCrashRecoverTimeline(t *testing.T) {
	sc := smallScenario(59, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)
	crashAt := cfg.Warmup + cfg.Requests/4
	recoverAt := cfg.Warmup + cfg.Requests/2
	sched := fault.MustSchedule(
		fault.Event{At: crashAt, Comp: fault.Origin, ID: 0, Kind: fault.Crash},
		fault.Event{At: crashAt, Comp: fault.Origin, ID: 1, Kind: fault.Crash},
		fault.Event{At: recoverAt, Comp: fault.Origin, ID: 0, Kind: fault.Recover},
		fault.Event{At: recoverAt, Comp: fault.Origin, ID: 1, Kind: fault.Recover},
	)
	m, err := RunWithSchedule(context.Background(), sc, p, cfg, sched, xrand.New(60))
	if err != nil {
		t.Fatal(err)
	}
	if m.EventsApplied != 4 || m.Requests != cfg.Requests {
		t.Fatalf("applied %d events over %d requests, want 4 over %d", m.EventsApplied, m.Requests, cfg.Requests)
	}
	if len(m.Phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(m.Phases), m.Phases)
	}
	healthy, degraded, healed := m.Phases[0], m.Phases[1], m.Phases[2]
	if healthy.Unavailable != 0 {
		t.Fatalf("pre-crash phase lost %d requests", healthy.Unavailable)
	}
	if degraded.Unavailable == 0 {
		t.Fatal("no unavailability with two origins down and no replicas")
	}
	if degraded.Availability() >= healthy.Availability() {
		t.Fatalf("crash did not dent availability: %.4f vs %.4f",
			degraded.Availability(), healthy.Availability())
	}
	if healed.Availability() <= degraded.Availability() {
		t.Fatalf("recovery did not restore availability: %.4f vs %.4f",
			healed.Availability(), degraded.Availability())
	}
	if healed.Unavailable != 0 {
		t.Fatalf("post-recovery phase still lost %d requests", healed.Unavailable)
	}
}

func TestScheduleSlowServerRaisesResponseTime(t *testing.T) {
	sc := smallScenario(61, 0)
	// Full replication everywhere: every request is local, so slowing
	// every server shows up purely in response time.
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(false)
	cfg.KeepResponseTimes = false
	base, err := RunWithSchedule(context.Background(), sc, p, cfg, nil, xrand.New(62))
	if err != nil {
		t.Fatal(err)
	}
	var events []fault.Event
	for i := 0; i < sc.Sys.N(); i++ {
		events = append(events, fault.Event{At: 0, Comp: fault.Server, ID: i, Kind: fault.Slow, ExtraMs: 25})
	}
	slow, err := RunWithSchedule(context.Background(), sc, p, cfg, fault.MustSchedule(events...), xrand.New(62))
	if err != nil {
		t.Fatal(err)
	}
	if slow.MeanRTMs <= base.MeanRTMs {
		t.Fatalf("slow servers did not raise mean RT: %.2f vs %.2f", slow.MeanRTMs, base.MeanRTMs)
	}
	if got := slow.MeanRTMs - base.MeanRTMs; got < 20 || got > 30 {
		t.Fatalf("uniform 25ms slowdown shifted mean by %.2f ms", got)
	}
}

func TestScheduleValidation(t *testing.T) {
	sc := smallScenario(63, 0)
	p := core.NewPlacement(sc.Sys)
	cfg := fastConfig(true)

	tooBig := fault.MustSchedule(fault.Event{At: 0, Comp: fault.Server, ID: sc.Sys.N(), Kind: fault.Crash})
	if _, err := RunWithSchedule(context.Background(), sc, p, cfg, tooBig, xrand.New(1)); err == nil {
		t.Fatal("out-of-range server id accepted")
	}
	badOrigin := fault.MustSchedule(fault.Event{At: 0, Comp: fault.Origin, ID: sc.Sys.M(), Kind: fault.Crash})
	if _, err := RunWithSchedule(context.Background(), sc, p, cfg, badOrigin, xrand.New(1)); err == nil {
		t.Fatal("out-of-range origin id accepted")
	}
	if _, err := fault.NewSchedule(fault.Event{At: 0, Comp: fault.Server, ID: -1, Kind: fault.Crash}); err == nil {
		t.Fatal("negative server id accepted")
	}
	par := cfg
	par.Parallelism = 4
	if _, err := RunWithSchedule(context.Background(), sc, p, par, nil, xrand.New(1)); err == nil {
		t.Fatal("parallel churn run accepted")
	}
}

func TestScheduleCancellation(t *testing.T) {
	sc := smallScenario(65, 0)
	p := core.NewPlacement(sc.Sys)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWithSchedule(ctx, sc, p, fastConfig(true), nil, xrand.New(66)); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, sc, p, fastConfig(true), xrand.New(66)); err != context.Canceled {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	par := fastConfig(true)
	par.Parallelism = 4
	if _, err := RunParallel(ctx, sc, p, par, xrand.New(66)); err != context.Canceled {
		t.Fatalf("cancelled RunParallel returned %v, want context.Canceled", err)
	}
}
