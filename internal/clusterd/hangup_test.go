package clusterd

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/httpcdn"
	"repro/internal/obs"
)

// TestClientHangUpMidMiss: a client that gives up while a real edge is
// fetching its miss from a slow origin blames nobody. The hang-up
// reaches the engine through the edge server's request context: the
// origin's tracker stays healthy (one failure would eject it here), the
// edge counts no error, and each serve span reads canceled.
func TestClientHangUpMidMiss(t *testing.T) {
	params := Params{Edges: 1, Seed: 5, CapacityFrac: 0.2}
	var buf lockedBuffer
	tr := obs.NewTracer(&buf)
	tc := startClusterEdges(t, params, ControlConfig{Interval: time.Hour},
		EdgeConfig{Config: httpcdn.Config{FailThreshold: 1}, Tracer: tr})
	e := tc.Edges[0]
	tc.Origin.Injector().Set(fault.ModeLatency, time.Second)

	const hangUps = 3
	impatient := &http.Client{Timeout: 50 * time.Millisecond}
	defer impatient.CloseIdleConnections()
	for object := 1; object <= hangUps; object++ {
		// Distinct objects of site 0: each is a miss held at the origin.
		if resp, err := impatient.Get(e.URL() + httpcdn.ObjectPath(0, object)); err == nil {
			resp.Body.Close()
			t.Fatalf("object %d answered %s before the client gave up", object, resp.Status)
		}
	}
	waitFor(t, 5*time.Second, "the edge to end every hung-up serve", func() error {
		canceled := 0
		for _, s := range readSpans(t, tr, &buf) {
			if s.Kind != obs.SpanServe {
				continue
			}
			if s.Attrs["outcome"] != "canceled" {
				return fmt.Errorf("serve span of object %d: outcome %q, want canceled", s.Object, s.Attrs["outcome"])
			}
			canceled++
		}
		if canceled != hangUps {
			return fmt.Errorf("%d canceled serve spans, want %d", canceled, hangUps)
		}
		return nil
	})
	if n := counter(e.Registry(), "cdn_edge_errors_total", 0); n != 0 {
		t.Errorf("cdn_edge_errors_total = %d after hang-ups, want 0", n)
	}
	origin := obs.Labels{"kind": "origin", "id": "0"}
	if n := e.Registry().Counter("cdn_health_ejections_total", "", origin).Value(); n != 0 {
		t.Errorf("the origin was ejected %d times by clients hanging up", n)
	}

	tc.Origin.Injector().Set(fault.ModeOff, 0)
	res, err := httpcdn.Get(context.Background(), http.DefaultClient, e.URL(), 0, hangUps+1)
	if err != nil || res.Source != httpcdn.SourceOrigin {
		t.Fatalf("miss after the hang-ups: %+v, %v", res, err)
	}
}

// TestBlackholedEdgeReleasesTimedOutClients: on an edge in
// fault.ModeBlackhole, a client that times out releases the handler
// parked on its context, so the edge's Shutdown has nothing in flight to
// wait for.
func TestBlackholedEdgeReleasesTimedOutClients(t *testing.T) {
	tc := startCluster(t, Params{Edges: 1, Seed: 5, CapacityFrac: 0.2}, ControlConfig{Interval: time.Hour})
	e := tc.Edges[0]
	e.Injector().Set(fault.ModeBlackhole, 0)
	impatient := &http.Client{Timeout: 100 * time.Millisecond}
	defer impatient.CloseIdleConnections()
	for object := 1; object <= 3; object++ {
		if resp, err := impatient.Get(e.URL() + httpcdn.ObjectPath(0, object)); err == nil {
			resp.Body.Close()
			t.Fatalf("a blackholed edge answered %s", resp.Status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v: a handler outlived its client", d)
	}
}
