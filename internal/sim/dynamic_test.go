package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/workload"
	"repro/internal/xrand"
)

// dynConfig drives steady publish/perish churn through the small
// scenario's 8 sites within a short run.
func dynConfig() workload.DynamicConfig {
	return workload.DynamicConfig{
		PublishRate: 0.004,
		PerishRate:  0.0005,
	}
}

// TestUnknownSiteNoPanic pins the bugfix: a request whose site index is
// outside the catalog (stale client, corrupt trace) must be answered at
// the first hop and counted, not crash the placement or size lookups.
func TestUnknownSiteNoPanic(t *testing.T) {
	sc := smallScenario(4, 0)
	p := hybridPlacementFor(sc)
	stream := sc.Stream(xrand.New(3))
	reqs := make([]workload.Request, 3000)
	unknown := 0
	for i := range reqs {
		reqs[i] = stream.Next()
		switch i % 5 {
		case 1:
			reqs[i].Site = len(sc.Work.Sites) + 3 // past the catalog
			unknown++
		case 3:
			reqs[i].Site = -1
			unknown++
		}
	}
	cfg := fastConfig(true)
	cfg.Requests = len(reqs)
	cfg.Warmup = 0
	m, err := RunSource(context.Background(), sc, p, cfg, &sliceSource{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if m.UnknownSite != int64(unknown) {
		t.Fatalf("UnknownSite = %d, want %d", m.UnknownSite, unknown)
	}
	// Unknown sites are 404s answered locally: zero hops, and no leak
	// into the replica/cache/origin attribution.
	if got := m.LocalReplica + m.CacheHits + m.CacheMisses + m.Bypass; got != int64(len(reqs)-unknown) {
		t.Fatalf("served attribution covers %d requests, want %d", got, len(reqs)-unknown)
	}
}

// TestPerishedServedAtOrigin pins the perished-request semantics: a 404
// for withdrawn content pays the full origin trip, bypasses the cache,
// and lands only in the Perished/OriginFetch counters.
func TestPerishedServedAtOrigin(t *testing.T) {
	sc := smallScenario(4, 0)
	p := hybridPlacementFor(sc)
	stream := sc.Stream(xrand.New(3))
	reqs := make([]workload.Request, 2000)
	perished := 0
	var wantHops float64
	for i := range reqs {
		reqs[i] = stream.Next()
		if i%4 == 0 {
			reqs[i].Perished = true
			reqs[i].Generation = 1
			perished++
			wantHops += sc.Sys.CostOrigin[reqs[i].Server][reqs[i].Site]
		}
	}
	cfg := fastConfig(true)
	cfg.Requests = len(reqs)
	cfg.Warmup = 0
	m, err := RunSource(context.Background(), sc, p, cfg, &sliceSource{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if m.Perished != int64(perished) {
		t.Fatalf("Perished = %d, want %d", m.Perished, perished)
	}
	if m.OriginFetch < int64(perished) {
		t.Fatalf("OriginFetch = %d, want >= %d (every perished request is an origin trip)",
			m.OriginFetch, perished)
	}
	if m.StaleReplica != 0 {
		t.Fatalf("StaleReplica = %d on perished-only traffic", m.StaleReplica)
	}
}

// TestStaleReplicaRedirects pins the stale-column rule: when a request's
// generation exceeds its column's placed generation, local and remote
// replicas are unusable and cache misses go to the origin — unless
// PlacedGeneration says the replicas were refreshed.
func TestStaleReplicaRedirects(t *testing.T) {
	sc := smallScenario(4, 0)
	p := hybridPlacementFor(sc)
	// Find a replicated (server, site) pair to make stale.
	var ri, rj = -1, -1
	for i := 0; i < sc.Sys.N() && ri < 0; i++ {
		for j := 0; j < sc.Sys.M(); j++ {
			if p.Has(i, j) {
				ri, rj = i, j
				break
			}
		}
	}
	if ri < 0 {
		t.Fatal("hybrid placement placed no replicas")
	}
	mk := func(gen int) []workload.Request {
		reqs := make([]workload.Request, 1000)
		for k := range reqs {
			reqs[k] = workload.Request{
				Server: ri, Site: rj, Object: 1 + k%10,
				Cacheable: true, Generation: gen,
			}
		}
		return reqs
	}
	cfg := fastConfig(true)
	cfg.Requests = 1000
	cfg.Warmup = 0

	// Generation 1 against a generation-0 placement: every miss is an
	// origin redirect; the local replica never serves.
	m, err := RunSource(context.Background(), sc, p, cfg, &sliceSource{reqs: mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalReplica != 0 {
		t.Fatalf("stale column served %d requests from the local replica", m.LocalReplica)
	}
	if m.StaleReplica == 0 {
		t.Fatal("no StaleReplica redirects recorded")
	}
	if m.StaleReplica != m.OriginFetch {
		t.Fatalf("StaleReplica = %d but OriginFetch = %d; stale misses must go to the origin",
			m.StaleReplica, m.OriginFetch)
	}
	// The generation-keyed cache still works: 10 distinct objects over
	// 1000 requests is hit-dominated.
	if m.CacheHits <= m.CacheMisses {
		t.Fatalf("stale column cache ineffective: %d hits, %d misses", m.CacheHits, m.CacheMisses)
	}

	// Refreshed placement (PlacedGeneration[rj] = 1): local replica
	// serves everything again.
	cfg.PlacedGeneration = make([]int, sc.Sys.M())
	cfg.PlacedGeneration[rj] = 1
	m, err = RunSource(context.Background(), sc, p, cfg, &sliceSource{reqs: mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalReplica != 1000 || m.StaleReplica != 0 {
		t.Fatalf("refreshed column: LocalReplica = %d, StaleReplica = %d; want 1000, 0",
			m.LocalReplica, m.StaleReplica)
	}
}

// TestDynamicSeqVsParallelIdentical extends the bit-identity guarantee
// to dynamic-catalog runs: the churning stream is drawn by the calling
// goroutine alone, so stepping its blocks on several goroutines must
// reproduce the sequential run exactly, new counters included.
func TestDynamicSeqVsParallelIdentical(t *testing.T) {
	sc := smallScenario(4, 0.05)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	cfg.Requests = 40000
	cfg.Warmup = 20000
	cfg.KeepResponseTimes = true

	mk := func() Source {
		return EndlessSource{S: workload.MustNewDynamicStream(sc.Work, dynConfig(), xrand.New(11))}
	}
	seq, err := RunSource(context.Background(), sc, p, cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	par, err := RunSourceParallel(context.Background(), sc, p, cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if seq.Perished == 0 || seq.StaleReplica == 0 {
		t.Fatalf("run exercised no dynamic outcomes (perished=%d stale=%d); raise the churn rate",
			seq.Perished, seq.StaleReplica)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sequential and parallel dynamic runs differ:\nseq: %+v\npar: %+v", seq, par)
	}
}
