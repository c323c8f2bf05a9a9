package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/placement"
)

// testCluster is a Local deployment that a test's cleanup shuts down.
type testCluster struct{ *Local }

func startCluster(t *testing.T, params Params, ccfg ControlConfig) *testCluster {
	t.Helper()
	return startClusterEdges(t, params, ccfg, EdgeConfig{})
}

// startClusterEdges is startCluster with every edge's serving knobs
// taken from ecfg.
func startClusterEdges(t *testing.T, params Params, ccfg ControlConfig, ecfg EdgeConfig) *testCluster {
	t.Helper()
	l, err := StartLocal(params, ccfg, OriginConfig{}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{l}
	t.Cleanup(tc.shutdown)
	return tc
}

// shutdown drains the deployment; a second call finds every server
// already stopped.
func (tc *testCluster) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tc.Shutdown(ctx)
}

// waitFor polls cond until it returns nil or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var last error
	for time.Now().Before(deadline) {
		if last = cond(); last == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: %v", what, last)
}

// TestClusterReportsAndReconciles boots control+origin+2 edges and drives
// a small load with no chaos (what the edges serve is TestServing's):
// the load generator must measure it, every served request must reach
// the controller's estimator through the demand reports, and a
// reconcile against the live estimate must apply.
func TestClusterReportsAndReconciles(t *testing.T) {
	params := DefaultParams()
	tc := startCluster(t, params, ControlConfig{
		Interval:    time.Hour, // reconcile manually below
		ReportEvery: 50 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := RunLoad(ctx, LoadConfig{
		ControlURL: tc.Control.URL(),
		Requests:   400,
		Workers:    4,
		Seed:       7,
		FaultEdge:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d requests failed", res.Errors, res.Requests)
	}
	if res.ReqPerSec <= 0 || res.Latency.P99 <= 0 || res.Latency.Max < res.Latency.P50 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
	if len(res.BySource) == 0 {
		t.Fatal("no X-Cdn-Source breakdown")
	}

	// Every client request an edge served must land, once, in the
	// estimator the controller reconciles on.
	est := tc.Control.Controller().Estimator()
	waitFor(t, 5*time.Second, "demand reports", func() error {
		if got := est.Observed(); got != int64(res.Requests) {
			return fmt.Errorf("estimator observed %d of %d requests", got, res.Requests)
		}
		return nil
	})
	if got := tc.Control.Controller().Status().Observed; got != est.Observed() {
		t.Fatalf("controller status observed %d, estimator %d", got, est.Observed())
	}

	// A manual reconcile over the live estimate must produce a
	// placement and push it to the edges.
	est.Roll()
	tc.Control.Controller().Unfreeze()
	if _, err := http.Post(tc.Control.URL()+"/debug/control/reconcile", "", nil); err != nil {
		t.Fatal(err)
	}
	_, version := tc.Control.Placement()
	waitFor(t, 5*time.Second, "placement push", func() error {
		for _, e := range tc.Edges {
			if got := e.PlacementVersion(); got < version {
				return fmt.Errorf("edge %d at placement v%d, control at v%d", e.cfg.ID, got, version)
			}
		}
		return nil
	})
}

// TestClusterChaosDrill is the acceptance drill: fault an edge from the
// first request on or mid-run, require zero lost requests (clients steer
// to the surviving edge), and for the mid-run fault require the control
// plane's probe loop to eject the edge — recorded as an exclusion in the
// reconcile audit — then readmit it after the fault clears. The last
// case takes two of three edges down at once.
func TestClusterChaosDrill(t *testing.T) {
	// The fault window is measured in *requests* and a fast loopback run
	// can blow through it in under 100ms of wall clock; probes must be
	// dense enough that at least FailThreshold of them land inside it, or
	// the drill flakes with "never ejected" on fast machines.
	ccfg := ControlConfig{
		Interval:       200 * time.Millisecond,
		ReportEvery:    50 * time.Millisecond,
		ProbeEvery:     10 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		FailThreshold:  2,
		Hysteresis:     -1,
		CooldownRounds: -1,
	}
	const faulted = 1
	drill := func(t *testing.T, tc *testCluster, requests, faultAt, clearAt int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := RunLoad(ctx, LoadConfig{
			ControlURL: tc.Control.URL(),
			Requests:   requests,
			Workers:    4,
			Seed:       11,
			FaultEdge:  faulted,
			FaultMode:  "error",
			FaultAt:    faultAt,
			ClearAt:    clearAt,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("chaos drill lost %d/%d requests", res.Errors, res.Requests)
		}
		if res.Steered == 0 {
			t.Fatal("no requests steered away from the faulted edge — fault never bit")
		}
		if res.Fault == nil || res.Fault.Edge != faulted {
			t.Fatalf("fault summary %+v", res.Fault)
		}
	}

	t.Run("one edge faulted from the first request", func(t *testing.T) {
		drill(t, startCluster(t, Params{Edges: 2, Seed: 1, CapacityFrac: 0.15}, ccfg), 300, 0, 0)
	})

	t.Run("one edge faulted mid-run", func(t *testing.T) {
		tc := startCluster(t, Params{Edges: 2, Seed: 1, CapacityFrac: 0.15}, ccfg)
		// Healthy traffic first: a reconcile round records an exclusion
		// only once it has demand to place against, and the whole fault
		// window can pass before the first demand report.
		tc.warm(t)
		drill(t, tc, 3000, 500, 2500)

		// The fault is cleared by now, but the probe loop must have seen
		// it: the tracker records an ejection and, after the fault
		// cleared, a readmission.
		tc.waitReadmitted(t, faulted)

		// The audit ring must hold a reconcile that excluded the faulted
		// edge, and a later one that did not.
		waitFor(t, 10*time.Second, "audit exclusion and readmission", func() error {
			records := tc.Control.Controller().Audit()
			sawExcluded, sawReadmitted := false, false
			for _, rec := range records {
				excluded := false
				for _, id := range rec.ExcludedEdges {
					if id == faulted {
						excluded = true
					}
				}
				if excluded {
					sawExcluded = true
				} else if sawExcluded {
					sawReadmitted = true
				}
			}
			if !sawExcluded {
				return fmt.Errorf("no audit record excludes edge %d (%d records)", faulted, len(records))
			}
			if !sawReadmitted {
				return fmt.Errorf("no post-exclusion audit record readmits edge %d", faulted)
			}
			return nil
		})
	})

	t.Run("two of three edges down at once", func(t *testing.T) {
		ccfg := ccfg
		ccfg.Interval = time.Hour // reconcile by hand, between the phases
		tc := startCluster(t, Params{Edges: 3, Seed: 1, CapacityFrac: 0.15}, ccfg)
		victims := []int{1, 2}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		load := func(phase string) *LoadResult {
			t.Helper()
			res, err := RunLoad(ctx, LoadConfig{ControlURL: tc.Control.URL(),
				Requests: 300, Workers: 4, Seed: 13, FaultEdge: -1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%s: lost %d/%d requests: %v", phase, res.Errors, res.Requests, res.ErrorClasses)
			}
			return res
		}

		tc.warm(t)

		for _, v := range victims {
			tc.Edges[v].Injector().Set(fault.ModeError, 0)
		}
		waitFor(t, 10*time.Second, "both victims ejected", func() error {
			if got := tc.Control.EjectedEdges(); fmt.Sprint(got) != fmt.Sprint(victims) {
				return fmt.Errorf("ejected %v, want %v", got, victims)
			}
			return nil
		})
		// An ejected edge is probed again every ProbeEvery, and its
		// retry countdown says so.
		for _, v := range victims {
			if ms := tc.edgeHealth(t, v).RetryInMs; ms > ccfg.ProbeEvery.Milliseconds() {
				t.Fatalf("edge %d: retry_in_ms = %d, want at most %d (ProbeEvery)", v, ms, ccfg.ProbeEvery.Milliseconds())
			}
		}
		// One survivor serves every logical request.
		if res := load("outage"); res.Steered == 0 {
			t.Fatal("no request steered away from the two dead edges")
		}
		// A reconcile during the outage excludes both victims and leaves
		// no replica on them.
		rep, err := tc.Control.Controller().Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rep.Excluded) != fmt.Sprint(victims) {
			t.Fatalf("reconcile during the outage excluded %v, want %v", rep.Excluded, victims)
		}
		live, _ := tc.Control.Placement()
		for _, v := range victims {
			for j := 0; j < live.System().M(); j++ {
				if live.Has(v, j) {
					t.Fatalf("site %d still placed on dead edge %d after the reconcile", j, v)
				}
			}
		}

		for _, v := range victims {
			tc.Edges[v].Injector().Set(fault.ModeOff, 0)
		}
		for _, v := range victims {
			tc.waitReadmitted(t, v)
		}
		if rep, err = tc.Control.Controller().Reconcile(); err != nil {
			t.Fatal(err)
		}
		if len(rep.Excluded) != 0 {
			t.Fatalf("post-recovery reconcile still excludes %v", rep.Excluded)
		}
	})
}

// TestProbesReuseOneConnection: the control plane's probes of an edge
// ride one connection, which is then there for a placement push. (A
// probe that closed its reply unread closed the connection with it, so
// every probe and every push dialled.)
func TestProbesReuseOneConnection(t *testing.T) {
	cp, err := StartControl(DefaultParams(), ControlConfig{
		Addr: "127.0.0.1:0", Interval: time.Hour, ProbeEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Shutdown(context.Background())

	var opened atomic.Int64
	edge := httptest.NewUnstartedServer(http.HandlerFunc(servePing))
	edge.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	edge.Start()
	defer edge.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := postJSON(ctx, http.DefaultClient, cp.URL()+"/cluster/register",
		RegisterRequest{Kind: "edge", ID: 0, URL: edge.URL}, nil); err != nil {
		t.Fatal(err)
	}
	rounds := cp.Registry().Counter("cdn_cluster_probe_rounds_total", "", nil)
	from := rounds.Value()
	waitFor(t, 10*time.Second, "ten probe rounds", func() error {
		if n := rounds.Value() - from; n < 10 {
			return fmt.Errorf("%d rounds", n)
		}
		return nil
	})
	if n := opened.Load(); n != 1 {
		t.Fatalf("ten probe rounds opened %d connections to the edge, want 1", n)
	}
}

// warm drives healthy traffic until the control plane has demand
// reports, so that the reconciles that follow have demand to place
// against.
func (tc *testCluster) warm(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := RunLoad(ctx, LoadConfig{ControlURL: tc.Control.URL(),
		Requests: 300, Workers: 4, Seed: 13, FaultEdge: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("healthy traffic lost %d/%d requests: %v", res.Errors, res.Requests, res.ErrorClasses)
	}
	waitFor(t, 5*time.Second, "demand reports", func() error {
		if tc.Control.Controller().Estimator().Observed() == 0 {
			return fmt.Errorf("estimator still empty")
		}
		return nil
	})
}

// waitReadmitted waits until the control plane's /debug/health shows
// edge id ejected at least once, readmitted, and healthy again.
func (tc *testCluster) waitReadmitted(t *testing.T, id int) {
	t.Helper()
	waitFor(t, 10*time.Second, "ejection+readmission", func() error {
		st := tc.edgeHealth(t, id)
		if st.Ejections == 0 {
			return fmt.Errorf("edge %d never ejected", id)
		}
		if st.Readmissions == 0 {
			return fmt.Errorf("edge %d never readmitted", id)
		}
		if st.State != "healthy" {
			return fmt.Errorf("edge %d still %s", id, st.State)
		}
		return nil
	})
}

// edgeHealth fetches one edge's row from the control plane's
// /debug/health.
func (tc *testCluster) edgeHealth(t *testing.T, id int) httpcdn.HealthStatus {
	t.Helper()
	var rep httpcdn.HealthReport
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := getJSON(ctx, http.DefaultClient, tc.Control.URL()+"/debug/health", &rep); err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Edges {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("edge %d missing from /debug/health", id)
	return httpcdn.HealthStatus{}
}

// TestClusterBlackholeRestorable pins the admin-mux split: a blackholed
// edge still answers POST /admin/fault, so chaos is always reversible.
// On the way it checks that /admin/fault's latency mode really delays.
func TestClusterBlackholeRestorable(t *testing.T) {
	params := Params{Edges: 1, Seed: 3, CapacityFrac: 0.2}
	tc := startCluster(t, params, ControlConfig{Interval: time.Hour})
	e := tc.Edges[0]

	// A latency fault set the way RunLoad sets it delays the edge by
	// faultLatency: the drill is not a no-op.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	setFault(ctx, http.DefaultClient, e.URL(), "latency")
	start := time.Now()
	resp, err := http.Get(e.URL() + "/admin/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if took := time.Since(start); took < faultLatency {
		t.Fatalf("ping of a latency-faulted edge took %v, want at least %v", took, faultLatency)
	}

	e.Injector().Set(fault.ModeBlackhole, 0)
	client := &http.Client{Timeout: 500 * time.Millisecond}
	if _, err := client.Get(e.URL() + "/admin/ping"); err == nil {
		t.Fatal("blackholed edge answered a ping")
	}
	setFault(ctx, &http.Client{Timeout: 2 * time.Second}, e.URL(), "off")
	if e.Injector().Mode() != fault.ModeOff {
		t.Fatal("/admin/fault did not clear the blackhole")
	}
	resp, err = http.Get(e.URL() + "/admin/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping after restore: %s", resp.Status)
	}
}

// TestPlacementVersionGate: replayed, reordered or stale pushes must
// not regress an edge's placement — including a push that lands after
// the edge pulled a newer version — and a report reply that names a
// newer version costs exactly one pull.
func TestPlacementVersionGate(t *testing.T) {
	params := Params{Edges: 1, Seed: 2, CapacityFrac: 0.2}
	// No report ticks: the test flushes by hand, so it can count pulls.
	tc := startCluster(t, params, ControlConfig{Interval: time.Hour, ReportEvery: time.Hour})
	cp, e := tc.Control, tc.Edges[0]
	v := e.PlacementVersion()
	if v < 1 {
		t.Fatalf("registered edge at placement v%d", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	push := func(version int64, doc []byte) {
		t.Helper()
		if err := postJSON(ctx, http.DefaultClient, e.URL()+"/admin/placement", PlacementPush{Version: version, Doc: doc}, nil); err != nil {
			t.Fatal(err)
		}
	}
	on := func(want []byte, version int64, when string) {
		t.Helper()
		if got := e.PlacementVersion(); got != version {
			t.Fatalf("%s: edge at v%d, want v%d", when, got, version)
		}
		if got := placementDoc(t, e.engine.Placement()); !bytes.Equal(got, want) {
			t.Fatalf("%s: edge holds %s, want %s", when, bytes.TrimSpace(got), bytes.TrimSpace(want))
		}
	}
	sys := cp.sc.Sys
	cur, _ := cp.Placement()
	docCur := placementDoc(t, cur)
	a, b := placement.None(sys).Placement, placement.GreedyGlobal(sys).Placement
	docA, docB := placementDoc(t, a), placementDoc(t, b)
	if bytes.Equal(docA, docB) {
		t.Fatal("the two placements are the same; the test cannot tell them apart")
	}

	// Replay under a stale version: accepted (the push protocol is
	// idempotent) but ignored.
	push(v-1, docA)
	on(docCur, v, "stale replay")

	// Delivered out of order: the older push arrives second.
	push(v+2, docB)
	push(v+1, docA)
	on(docB, v+2, "out-of-order pushes")

	// The control plane moves to v+3 without reaching the edge: the next
	// report reply names it and the edge pulls it, once.
	if _, err := cp.target.set(a, v+3); err != nil {
		t.Fatal(err)
	}
	pulls := e.pulls.Value()
	e.flushReport(ctx)
	on(docA, v+3, "report naming a newer version")
	e.flushReport(ctx)
	if got := e.pulls.Value() - pulls; got != 1 {
		t.Fatalf("%d pulls over two reports, one naming a newer version; want 1", got)
	}

	// The v+2 push the pull overtook arrives late: ignored.
	push(v+2, docB)
	on(docA, v+3, "stale push after a newer pull")
}

// TestHungEdgesCostOnePushTimeout: the control plane pushes a placement
// to every edge at once, so two edges whose /admin/placement never
// answers cost a reconcile one push timeout, not one each, and do not
// hold the live edge back.
func TestHungEdgesCostOnePushTimeout(t *testing.T) {
	tc := startCluster(t, Params{Edges: 3, Seed: 1, CapacityFrac: 0.15}, ControlConfig{
		Interval: time.Hour, Hysteresis: -1, CooldownRounds: -1})
	cp := tc.Control

	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/admin/placement" {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		servePing(w, r)
	}))
	defer hung.Close()
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []int{1, 2} {
		if err := postJSON(ctx, http.DefaultClient, cp.URL()+"/cluster/register",
			RegisterRequest{Kind: "edge", ID: id, URL: hung.URL}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Demand on one site only: the plan moves away from the scenario's.
	for i := 0; i < 3; i++ {
		cp.Controller().Estimator().ObserveN(i, 0, 1000)
	}
	pushErrs := cp.Registry().Counter("cdn_cluster_placement_push_errors_total", "", nil)
	errsBefore := pushErrs.Value()
	start := time.Now()
	rep, err := cp.Controller().Reconcile()
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != control.OutcomeApplied {
		t.Fatalf("reconcile outcome %s, want applied", rep.Outcome)
	}
	if took >= 3*time.Second {
		t.Fatalf("reconcile with two hung edges took %v, want one %v push timeout", took, pushTimeout)
	}
	if _, version := cp.Placement(); tc.Edges[0].PlacementVersion() != version {
		t.Fatalf("live edge at v%d, control plane at v%d", tc.Edges[0].PlacementVersion(), version)
	}
	if got := pushErrs.Value() - errsBefore; got != 2 {
		t.Fatalf("push errors rose by %d, want 2", got)
	}
}

// TestLoadStaleLinks drives a run where a quarter of the requests aim
// at out-of-catalog sites: all of them must come back as clean 404s
// (NotFound), none as errors, and the edges must attribute them to the
// not-found counter rather than cdn_edge_errors_total.
func TestLoadStaleLinks(t *testing.T) {
	params := DefaultParams()
	tc := startCluster(t, params, ControlConfig{
		Interval:    time.Hour,
		ReportEvery: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := RunLoad(ctx, LoadConfig{
		ControlURL:    tc.Control.URL(),
		Requests:      400,
		Workers:       4,
		Seed:          7,
		FaultEdge:     -1,
		StaleLinkFrac: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d requests failed under stale-link load", res.Errors, res.Requests)
	}
	// ~100 of 400 requests should be stale; the coin flips are seeded,
	// so just require the feature clearly engaged.
	if res.NotFound < 50 || res.NotFound > 150 {
		t.Fatalf("NotFound = %d of %d, want roughly a quarter", res.NotFound, res.Requests)
	}
	var notFound, fails int64
	for _, e := range tc.Edges {
		label := obs.Labels{"edge": strconv.Itoa(e.ID())}
		notFound += e.Registry().Counter("cdn_edge_notfound_total", "", label).Value()
		fails += e.Registry().Counter("cdn_edge_errors_total", "", label).Value()
	}
	if notFound != res.NotFound {
		t.Errorf("edges counted %d not-found, load generator saw %d", notFound, res.NotFound)
	}
	if fails != 0 {
		t.Errorf("stale links drove cdn_edge_errors_total to %d, want 0", fails)
	}
	// Rejecting a bad fraction is part of the contract.
	if _, err := RunLoad(ctx, LoadConfig{ControlURL: tc.Control.URL(), Requests: 1, StaleLinkFrac: 1}); err == nil {
		t.Error("RunLoad accepted StaleLinkFrac = 1")
	}
}

// TestLoadEjectsAFailingEdge: the load generator's health trackers take
// a failing edge out of rotation. Under an error fault that lasts the
// rest of the run, the edge is sent at most DefaultFailThreshold failing
// attempts before its ejection, one half-open probe per DefaultEjectFor
// and one attempt per worker already under way — not every request
// mapped to it — and no request is lost.
func TestLoadEjectsAFailingEdge(t *testing.T) {
	tc := startCluster(t, Params{Edges: 2, Seed: 1, CapacityFrac: 0.15},
		ControlConfig{Interval: time.Hour, ReportEvery: time.Hour})
	const faulted, workers = 1, 4
	// The client reaches the faulted edge through a proxy that counts the
	// fault's answers, listed in a members page of its own; the edges
	// still reach each other directly.
	target, err := url.Parse(tc.Edges[faulted].URL())
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Int64
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Header.Get("X-Cdn-Fault") != "" {
			failed.Add(1)
		}
		return nil
	}
	front := httptest.NewServer(proxy)
	defer front.Close()
	members := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m, err := WaitMembers(r.Context(), nil, tc.Control.URL())
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		for i := range m.Edges {
			if m.Edges[i].ID == faulted {
				m.Edges[i].URL = front.URL
			}
		}
		json.NewEncoder(w).Encode(m)
	}))
	defer members.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	res, err := RunLoad(ctx, LoadConfig{ControlURL: members.URL, Requests: 2000, Workers: workers,
		Seed: 11, FaultEdge: faulted, FaultMode: "error", FaultAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.Errors != 0 {
		t.Fatalf("lost %d/%d requests: %v", res.Errors, res.Requests, res.ErrorClasses)
	}
	probes := int64(elapsed/httpcdn.DefaultEjectFor) + 1
	bound := httpcdn.DefaultFailThreshold + probes + workers
	t.Logf("edge %d failed %d attempts in %v (bound %d); %d requests steered", faulted, failed.Load(), elapsed, bound, res.Steered)
	if failed.Load() == 0 {
		t.Fatal("the fault never bit")
	}
	if failed.Load() > bound {
		t.Fatalf("edge %d was sent %d attempts under its fault, want at most %d: %d to eject it, %d probes, %d in flight",
			faulted, failed.Load(), bound, httpcdn.DefaultFailThreshold, probes, workers)
	}
}

// TestLoadRejectsDrillsThatInjectNothing: a misspelt fault mode, a
// fault index the run never reaches and an edge outside the roster are
// errors, not drills that pass having faulted nothing; so is a fault
// the edge refuses or cannot be told about.
func TestLoadRejectsDrillsThatInjectNothing(t *testing.T) {
	tc := startCluster(t, DefaultParams(), ControlConfig{Interval: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tt := range []struct {
		name string
		cfg  LoadConfig
		want string
	}{
		{"misspelt mode", LoadConfig{FaultMode: "erorr", FaultEdge: 1, FaultAt: 50, ClearAt: 300}, `fault mode "erorr"`},
		{"fault before the first request", LoadConfig{FaultMode: "error", FaultEdge: 1, FaultAt: -1}, "fault at request -1"},
		{"fault after the last request", LoadConfig{FaultMode: "error", FaultEdge: 1, FaultAt: 400}, "fault at request 400"},
		{"edge outside the roster", LoadConfig{FaultMode: "error", FaultEdge: 2}, "fault edge 2"},
		{"no edge", LoadConfig{FaultMode: "latency", FaultEdge: -1}, "fault edge -1"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tt.cfg.ControlURL, tt.cfg.Requests, tt.cfg.Seed = tc.Control.URL(), 400, 7
			res, err := RunLoad(ctx, tt.cfg)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("RunLoad = %+v, %v; want an error naming %q", res, err, tt.want)
			}
		})
	}

	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	if err := setFault(ctx, http.DefaultClient, refusing.URL, "error"); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("setFault against a 500 = %v, want the status", err)
	}
	refusing.Close()
	if err := setFault(ctx, http.DefaultClient, refusing.URL, "error"); err == nil {
		t.Error("setFault against a closed listener succeeded")
	}
}
