package httpcdn

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestUnknownUpstreamIsNotFailedUpstream pins the boot-order fix: an
// engine that takes misses before its first roster arrives answers them
// at once with the origin-down class and leaves the origin's health
// alone, so the first request after the roster lands is served. (Before
// the fix three such misses ejected a healthy origin for EjectFor.)
func TestUnknownUpstreamIsNotFailedUpstream(t *testing.T) {
	sc := smallScenario(t)
	reg := obs.NewRegistry()
	var versions Versions
	origin := httptest.NewServer(NewOrigin(sc, &versions, reg, nil))
	defer origin.Close()

	originTracker := NewTracker(reg, "origin", 0)
	cfg := EngineConfig{ID: 0, Scenario: sc, Placement: core.NewPlacement(sc.Sys)}
	cfg.Metrics = reg
	roster := Roster{}
	for j := 0; j < sc.Sys.M(); j++ {
		cfg.OriginHealth = append(cfg.OriginHealth, originTracker)
		roster.Origins = append(roster.Origins, origin.URL)
	}
	for i := 0; i < sc.Sys.N(); i++ {
		cfg.PeerHealth = append(cfg.PeerHealth, NewTracker(reg, "edge", i))
	}
	e := NewEngine(cfg)
	edge := httptest.NewServer(e)
	defer edge.Close()

	start := time.Now()
	for obj := 1; obj <= 5; obj++ {
		resp, err := http.Get(edge.URL + ObjectPath(0, obj))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway || resp.Header.Get(ErrorHeader) != "origin-down" {
			t.Fatalf("miss %d with an empty roster: status %d class %q, want 502 origin-down",
				obj, resp.StatusCode, resp.Header.Get(ErrorHeader))
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("five misses with no upstream to try took %v: something was attempted or slept on", elapsed)
	}
	if st := originTracker.Snapshot("origin", 0, time.Now()); st.State != "healthy" || st.ConsecutiveFailures != 0 {
		t.Fatalf("unknown origin was blamed: %+v", st)
	}

	e.SetRoster(roster)
	res, err := Get(context.Background(), http.DefaultClient, edge.URL, 0, 6)
	if err != nil || res.Source != SourceOrigin {
		t.Fatalf("first request after the roster arrived: %+v, %v", res, err)
	}
	if st := e.Stats(); st.OriginFetch != 1 || st.CacheLookups() != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestUpstreamsFollowNearestSource: a miss tries core's nearest source
// among the origin and the peers on offer — on a tie the origin before a
// peer, and of two tied peers the lower index — then the other of the
// origin and the nearest such peer. An ejected peer is skipped and
// counted; an ejected origin goes last, never away.
func TestUpstreamsFollowNearestSource(t *testing.T) {
	// Edge 0 misses site 0, which peers 2 and 3 hold, both 2 hops away;
	// so is the origin.
	sys := &core.System{
		CostServer: [][]float64{{0, 1, 2, 2}, {1, 0, 1, 1}, {2, 1, 0, 2}, {2, 1, 2, 0}},
		CostOrigin: [][]float64{{2}, {1}, {3}, {3}},
		SiteBytes:  []int64{1},
		Capacity:   []int64{1, 1, 1, 1},
		Demand:     [][]float64{{1}, {1}, {1}, {1}},
	}
	pl := core.NewPlacement(sys)
	for _, k := range []int{3, 2} {
		if err := pl.Replicate(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	cfg := EngineConfig{ID: 0, Scenario: &scenario.Scenario{Sys: sys}, Placement: pl}
	cfg.Metrics = reg
	for i := 0; i < sys.N(); i++ {
		cfg.PeerHealth = append(cfg.PeerHealth, NewTracker(reg, "edge", i))
	}
	cfg.OriginHealth = []*Tracker{NewTracker(reg, "origin", 0)}
	e := NewEngine(cfg)
	e.SetRoster(Roster{Peers: []string{"e0", "e1", "e2", "e3"}, Origins: []string{"o"}})
	eject := func(tr *Tracker) {
		for i := 0; i < DefaultFailThreshold; i++ {
			tr.Failure(DefaultFailThreshold, time.Hour, time.Now())
		}
	}
	check := func(what string, internal bool, want string, wantSkipped int) {
		t.Helper()
		ups, skipped := e.upstreams(pl, 0, internal)
		var got []string
		for _, u := range ups {
			got = append(got, fmt.Sprintf("%s:%d@%v", u.kind, u.id, u.hops))
		}
		if fmt.Sprint(got) != want || skipped != wantSkipped {
			t.Errorf("%s: upstreams %v, %d skipped; want %s, %d skipped", what, got, skipped, want, wantSkipped)
		}
	}
	check("all up", false, "[origin:0@2 edge:2@2]", 0)
	check("internal fetch", true, "[origin:0@2]", 0)
	eject(cfg.PeerHealth[2])
	check("peer 2 ejected", false, "[origin:0@2 edge:3@2]", 1)
	eject(cfg.OriginHealth[0])
	check("origin ejected too", false, "[edge:3@2 origin:0@2]", 1)
	eject(cfg.PeerHealth[3])
	check("every peer ejected", false, "[origin:0@2]", 2)
}

// tracedEngine is testEngine with a span tracer on buf.
func tracedEngine(t *testing.T, cfg Config, originURL string) (e *Engine, missSite int, origin *Tracker, tr *obs.Tracer, buf *bytes.Buffer) {
	t.Helper()
	sc := smallScenario(t)
	e, replicated, origin := testEngine(t, sc, cfg, 64<<20, originURL)
	buf = new(bytes.Buffer)
	tr = obs.NewTracer(buf)
	e.cfg.Spans = tr
	return e, (replicated + 1) % sc.Sys.M(), origin, tr, buf
}

// flushSpans reads back what tr has written to buf.
func flushSpans(t *testing.T, tr *obs.Tracer, buf *bytes.Buffer) []obs.Span {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestClientHangUpBlamesNoUpstream: clients that leave while their miss
// waits on a slow but healthy origin are not the origin's failures. The
// origin's tracker sees no outcome, the edge counts no error and the
// serve spans say canceled; a hang-up during a half-open probe hands the
// probe back, so the next request readmits the origin. (Before the fix
// three such hang-ups ejected the origin for EjectFor.)
func TestClientHangUpBlamesNoUpstream(t *testing.T) {
	const slow = 100 * time.Millisecond
	var versions Versions
	sc := smallScenario(t)
	originHandler := NewOrigin(sc, &versions, obs.NewRegistry(), nil)
	url := listen(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(slow):
			originHandler.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	e, site, origin, tr, buf := tracedEngine(t, Config{}, url)
	hangUp := func(object int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		time.AfterFunc(10*time.Millisecond, cancel)
		e.ServeHTTP(&countingWriter{h: make(http.Header)},
			httptest.NewRequest(http.MethodGet, ObjectPath(site, object), nil).WithContext(ctx))
	}
	for object := 1; object <= 3; object++ {
		hangUp(object)
	}
	if st := origin.Snapshot("origin", 0, time.Now()); st.State != "healthy" || st.ConsecutiveFailures != 0 {
		t.Fatalf("origin after three hang-ups: %+v, want healthy with no failures", st)
	}
	if n := e.fails.Value(); n != 0 {
		t.Fatalf("cdn_edge_errors_total = %d after hang-ups, want 0", n)
	}
	canceled := 0
	for _, s := range flushSpans(t, tr, buf) {
		if s.Kind == obs.SpanServe {
			if s.Attrs["outcome"] != "canceled" {
				t.Fatalf("serve span of a hang-up: outcome %q, want canceled", s.Attrs["outcome"])
			}
			canceled++
		}
	}
	if canceled != 3 {
		t.Fatalf("%d canceled serve spans, want 3", canceled)
	}

	// Eject the origin with a window that has already passed: the next
	// fetch is its half-open probe, and its client hangs up.
	origin.Failure(1, time.Millisecond, time.Now().Add(-time.Second))
	hangUp(4)
	if w := serve(e, site, 5); w.status != http.StatusOK {
		t.Fatalf("after an abandoned probe: status %d class %q, want the origin probed and served", w.status, w.h.Get(ErrorHeader))
	}
	if origin.IsEjected() {
		t.Fatal("the successful probe did not readmit the origin")
	}
}

// TestStaleUpstreamConnectionCostsNothing: an idle upstream connection
// that its server closed is replaced on the spot — the miss is served on
// its first attempt, and neither the origin's health nor the edge's
// error count hears of it.
func TestStaleUpstreamConnectionCostsNothing(t *testing.T) {
	var versions Versions
	sc := smallScenario(t)
	srv := httptest.NewServer(NewOrigin(sc, &versions, obs.NewRegistry(), nil))
	defer srv.Close()
	e, site, origin, tr, buf := tracedEngine(t, Config{}, srv.URL)
	if w := serve(e, site, 1); w.status != http.StatusOK {
		t.Fatalf("first miss: status %d", w.status)
	}
	srv.CloseClientConnections()
	if w := serve(e, site, 2); w.status != http.StatusOK || w.h.Get("X-Cdn-Source") != SourceOrigin {
		t.Fatalf("miss on a stale connection: status %d source %q", w.status, w.h.Get("X-Cdn-Source"))
	}
	var attempts []string
	for _, s := range flushSpans(t, tr, buf) {
		if s.Kind == obs.SpanUpstream && s.Object == 2 {
			attempts = append(attempts, s.Attrs["attempt"]+":"+s.Attrs["outcome"])
		}
	}
	if len(attempts) != 1 || attempts[0] != "1:ok" {
		t.Fatalf("upstream attempts of the second miss: %v, want [1:ok]", attempts)
	}
	if st := origin.Snapshot("origin", 0, time.Now()); st.ConsecutiveFailures != 0 {
		t.Fatalf("origin blamed for a stale connection: %+v", st)
	}
	if n := e.fails.Value(); n != 0 {
		t.Fatalf("cdn_edge_errors_total = %d, want 0", n)
	}
}
