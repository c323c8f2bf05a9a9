package httpcdn

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
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

func startHybridCluster(t *testing.T) (*scenario.Scenario, *core.Placement, *Cluster) {
	t.Helper()
	sc := smallScenario(t)
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Start(sc, res.Placement, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return sc, res.Placement, cl
}

func TestPayloadDeterministic(t *testing.T) {
	sc, _, cl := startHybridCluster(t)
	// Fetch the same object via two different edges; the bodies (sizes
	// capped) must be identical byte patterns.
	a, err := cl.Fetch(context.Background(), 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Fetch(context.Background(), sc.Sys.N()-1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != b.Bytes {
		t.Fatalf("sizes differ: %d vs %d", a.Bytes, b.Bytes)
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

func TestConsistencyOverHTTP(t *testing.T) {
	sc := smallScenario(t)
	p := core.NewPlacement(sc.Sys) // no replicas: everything cacheable

	run := func(revalidate bool) (stale bool, stats EdgeStats) {
		cfg := DefaultConfig()
		cfg.RevalidateOnHit = revalidate
		cl, err := Start(sc, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		const edge, site, object = 0, 0, 2
		// Prime the cache.
		first, err := cl.Fetch(context.Background(), edge, site, object)
		if err != nil {
			t.Fatal(err)
		}
		if first.Version != 0 {
			t.Fatalf("fresh object at version %d", first.Version)
		}
		// Second fetch must hit the cache.
		second, err := cl.Fetch(context.Background(), edge, site, object)
		if err != nil {
			t.Fatal(err)
		}
		if second.Source != SourceCache {
			t.Fatalf("second fetch source %q", second.Source)
		}
		// Modify at the origin, fetch again.
		cl.ModifyObject(site, object)
		third, err := cl.Fetch(context.Background(), edge, site, object)
		if err != nil {
			t.Fatal(err)
		}
		return third.Version == 0, cl.EdgeStats(edge)
	}

	// Weak consistency serves the stale version 0.
	stale, weakStats := run(false)
	if !stale {
		t.Error("weak consistency unexpectedly served the fresh version")
	}
	if weakStats.Revalidations != 0 {
		t.Error("weak mode revalidated")
	}

	// Strong consistency revalidates and serves version 1.
	stale, strongStats := run(true)
	if stale {
		t.Error("strong consistency served a stale version")
	}
	if strongStats.Revalidations == 0 {
		t.Error("strong mode never revalidated")
	}
	if strongStats.NotModified == 0 {
		t.Error("no 304 replies despite an unmodified second fetch")
	}
}

// TestFailedRevalidationCountedOnce pins the accounting of a cache hit
// whose conditional GET fails: the full fetch that follows makes it a
// miss, not a hit and a fetch, so CacheLookups stays the number of
// requests that got past the replica check while the origin flaps.
func TestFailedRevalidationCountedOnce(t *testing.T) {
	sc := smallScenario(t)
	// One replica on a peer, so a full fetch succeeds with the origin down.
	const edge, peer = 0, 1
	p, site := core.NewPlacement(sc.Sys), 0
	for !p.CanReplicate(peer, site) {
		site++
	}
	if err := p.Replicate(peer, site); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics, cfg.RevalidateOnHit = reg, true
	cfg.Retry = RetryPolicy{Attempts: 1, Timeout: 200 * time.Millisecond}
	cl, err := Start(sc, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for k, want := range []string{"", SourceCache, SourcePeer} { // miss; hit, 304; hit, origin down
		if k == 2 {
			cl.OriginInjector(site).Set(fault.ModeError, 0)
		}
		res, err := cl.Fetch(context.Background(), edge, site, 2)
		if err != nil {
			t.Fatalf("fetch %d: %v", k, err)
		}
		if want != "" && res.Source != want {
			t.Fatalf("fetch %d served from %q, want %q", k, res.Source, want)
		}
	}
	st := cl.EdgeStats(edge)
	if st.CacheLookups() != 3 || st.CacheHit != 1 || st.Revalidations != 2 || st.NotModified != 1 {
		t.Fatalf("3 requests past the replica check, 1 served from cache: %+v (lookups %d)", st, st.CacheLookups())
	}
	label := obs.Labels{"edge": "0"}
	hits := reg.Counter("cdn_edge_cache_hits_total", "", label).Value()
	misses := reg.Counter("cdn_edge_cache_misses_total", "", label).Value()
	if hits != 1 || misses != 2 {
		t.Fatalf("cdn_edge_cache_hits_total = %d, misses = %d; want 1 and 2", hits, misses)
	}
}

func TestConcurrentFetches(t *testing.T) {
	sc, _, cl := startHybridCluster(t)
	stream := sc.Stream(xrand.New(5))
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
				if _, err := cl.Fetch(context.Background(), r.Server, r.Site, r.Object); err != nil {
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
	sc, _, cl := startHybridCluster(t)
	stream := sc.Stream(xrand.New(9))
	sources := map[string]int{}
	for i := 0; i < 600; i++ {
		req := stream.Next()
		res, err := cl.Fetch(context.Background(), req.Server, req.Site, req.Object)
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

func TestStartRejectsForeignPlacement(t *testing.T) {
	a := smallScenario(t)
	b := scenario.MustBuild(scenario.Config{
		Topology:     a.Cfg.Topology,
		Workload:     a.Cfg.Workload,
		CapacityFrac: a.Cfg.CapacityFrac,
		Seed:         2,
	})
	if _, err := Start(a, core.NewPlacement(b.Sys), DefaultConfig()); err == nil {
		t.Fatal("foreign placement accepted")
	}
}
