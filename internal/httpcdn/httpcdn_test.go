package httpcdn

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func smallScenario(t testing.TB) *scenario.Scenario {
	t.Helper()
	w := workload.DefaultConfig()
	w.Servers = 4
	w.LowSites, w.MediumSites, w.HighSites = 2, 2, 2
	w.ObjectsPerSite = 40
	return scenario.MustBuild(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   2,
			StubNodesPerStub:      3,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.25,
		Seed:         1,
	})
}

// mesh is every edge of a scenario as an Engine behind its own loopback
// listener, plus one Origin serving every site: the package's serving
// path on real sockets, without a control plane. Each edge keeps its own
// registry and health trackers, as a deployed edge does.
type mesh struct {
	sc      *scenario.Scenario
	engines []*Engine
	regs    []*obs.Registry
	edges   []*httptest.Server
	origin  *httptest.Server
}

// startMesh serves p on every edge of sc; spans, when non-nil, receives
// the span trees of the edges and the origin.
func startMesh(t *testing.T, sc *scenario.Scenario, p *core.Placement, spans *obs.Tracer) *mesh {
	t.Helper()
	m := &mesh{sc: sc}
	m.origin = httptest.NewServer(NewOrigin(sc, &Versions{}, obs.NewRegistry(), spans))
	roster := Roster{Peers: make([]string, sc.Sys.N()), Origins: make([]string, sc.Sys.M())}
	for j := range roster.Origins {
		roster.Origins[j] = m.origin.URL
	}
	for i := 0; i < sc.Sys.N(); i++ {
		reg := obs.NewRegistry()
		cfg := EngineConfig{ID: i, Scenario: sc, Placement: p, Spans: spans}
		cfg.Metrics = reg
		for k := 0; k < sc.Sys.N(); k++ {
			cfg.PeerHealth = append(cfg.PeerHealth, NewTracker(reg, "edge", k))
		}
		for j := 0; j < sc.Sys.M(); j++ {
			cfg.OriginHealth = append(cfg.OriginHealth, NewTracker(reg, "origin", j))
		}
		e := NewEngine(cfg)
		srv := httptest.NewServer(e)
		m.engines, m.regs, m.edges = append(m.engines, e), append(m.regs, reg), append(m.edges, srv)
		roster.Peers[i] = srv.URL
	}
	for _, e := range m.engines {
		e.SetRoster(roster)
	}
	t.Cleanup(m.close)
	return m
}

// fetch is a verified client GET of (site, object) at edge.
func (m *mesh) fetch(edge, site, object int) (FetchResult, error) {
	return Get(context.Background(), http.DefaultClient, m.edges[edge].URL, site, object)
}

// close shuts every listener down, waiting for in-flight handlers, so
// counters, latency samples and spans are complete afterwards. It may be
// called more than once.
func (m *mesh) close() {
	for i, srv := range m.edges {
		srv.Close()
		m.engines[i].CloseIdleConnections()
	}
	m.origin.Close()
}

// startHybridMesh serves the hybrid placement of the small scenario.
func startHybridMesh(t *testing.T, spans *obs.Tracer) *mesh {
	t.Helper()
	sc := smallScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return startMesh(t, sc, res.Placement, spans)
}

func TestPayloadDeterministic(t *testing.T) {
	m := startHybridMesh(t, nil)
	// Fetch the same object via two different edges: Get verifies each
	// body against its version's pattern, and both must be the same size
	// and version.
	a, err := m.fetch(0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.fetch(m.sc.Sys.N()-1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != b.Bytes || a.Version != b.Version {
		t.Fatalf("edges disagree: %d bytes at version %d vs %d bytes at version %d",
			a.Bytes, a.Version, b.Bytes, b.Version)
	}
}

func TestVerifyBody(t *testing.T) {
	var buf bytes.Buffer
	WritePattern(&buf, 2, 7, 0, 10000)
	if !VerifyBody(buf.Bytes(), 2, 7, 0) {
		t.Fatal("pattern does not verify")
	}
	corrupted := append([]byte(nil), buf.Bytes()...)
	corrupted[5000] ^= 0xff
	if VerifyBody(corrupted, 2, 7, 0) {
		t.Fatal("corruption not detected")
	}
	if VerifyBody(buf.Bytes(), 3, 7, 0) {
		t.Fatal("wrong object verified")
	}
	if VerifyBody(buf.Bytes(), 2, 7, 1) {
		t.Fatal("wrong version verified")
	}
}

func TestVersionFromETag(t *testing.T) {
	if got := VersionFromETag(ETagFor(3, 9, 42)); got != 42 {
		t.Fatalf("parsed version %d, want 42", got)
	}
	if got := VersionFromETag(`"no-version-here"`); got != 0 {
		t.Fatalf("garbage etag parsed to %d", got)
	}
	if got := VersionFromETag(""); got != 0 {
		t.Fatalf("empty etag parsed to %d", got)
	}
}

func TestConcurrentFetches(t *testing.T) {
	m := startHybridMesh(t, nil)
	stream := m.sc.Stream(xrand.New(5))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		reqs := make([]workload.Request, 50)
		for i := range reqs {
			reqs[i] = stream.Next()
		}
		wg.Add(1)
		go func(reqs []workload.Request) {
			defer wg.Done()
			for _, r := range reqs {
				if _, err := m.fetch(r.Server, r.Site, r.Object); err != nil {
					errs <- err
					return
				}
			}
		}(reqs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLoadRunHitRatio(t *testing.T) {
	m := startHybridMesh(t, nil)
	stream := m.sc.Stream(xrand.New(9))
	sources := map[string]int{}
	for i := 0; i < 600; i++ {
		req := stream.Next()
		res, err := m.fetch(req.Server, req.Site, req.Object)
		if err != nil {
			t.Fatal(err)
		}
		sources[res.Source]++
	}
	if sources[SourceCache] == 0 {
		t.Error("no cache hits over 600 requests")
	}
	if sources[SourceCache]+sources[SourceReplica]+sources[SourcePeer]+sources[SourceOrigin] != 600 {
		t.Errorf("source accounting wrong: %v", sources)
	}
}
