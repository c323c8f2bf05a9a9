package httpcdn

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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
	origin := httptest.NewServer(NewOrigin(sc, 0, &versions, reg, nil))
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
