package clusterd

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/httpcdn"
)

// TestEdgeDrainsUnderLoad pins satellite behavior for rolling restarts:
// requests in flight when Shutdown begins complete with 200 — zero 5xx
// — and requests arriving after the listener closes are refused at the
// transport layer rather than half-served.
//
// The origin is slowed with the latency injector so the in-flight
// requests are guaranteed to still be on the wire when Shutdown is
// called (every request is a miss: distinct objects, cold cache).
func TestEdgeDrainsUnderLoad(t *testing.T) {
	params := Params{Edges: 1, Seed: 5, CapacityFrac: 0.2}
	tc := startCluster(t, params, ControlConfig{Interval: time.Hour})
	e := tc.Edges[0]

	const slow = 150 * time.Millisecond
	tc.Origin.Injector().Set(fault.ModeLatency, slow)
	defer tc.Origin.Injector().Set(fault.ModeOff, 0)

	const inflight = 8
	client := &http.Client{Timeout: 10 * time.Second}
	url := e.URL()
	errs := make([]error, inflight)
	var started, finished sync.WaitGroup
	started.Add(inflight)
	finished.Add(inflight)
	for g := 0; g < inflight; g++ {
		go func(g int) {
			defer finished.Done()
			// Distinct objects of site 0 → all cache misses → all held at
			// the slow origin when the drain starts.
			path := httpcdn.ObjectPath(0, 1+g)
			req, _ := http.NewRequest(http.MethodGet, url+path, nil)
			started.Done()
			resp, err := client.Do(req)
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("GET %s during drain: %s", path, resp.Status)
			}
		}(g)
	}
	started.Wait()
	// The goroutines have issued Do; give the requests time to reach the
	// edge and block on the slow origin, then begin the drain.
	time.Sleep(slow / 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	finished.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("in-flight request %d: %v", g, err)
		}
	}

	// After the drain the listener is closed: new connections fail fast.
	post := &http.Client{Timeout: time.Second}
	if _, err := post.Get(url + httpcdn.ObjectPath(0, 1)); err == nil {
		t.Fatal("request accepted after shutdown")
	}
}
