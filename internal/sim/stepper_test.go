package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// replay drives src through st one request at a time under RunSource's
// contract — the same errors, then the driver-side sums in draw order —
// so its result is comparable field by field with RunSource's. between,
// if set, runs before each draw.
func replay(st *Stepper, cfg Config, src Source, between func(k int)) (*Metrics, error) {
	n := len(st.sh.m.PerServerHits)
	var totalRT, totalHops float64
	var rts []float64
	if cfg.KeepResponseTimes {
		rts = make([]float64, 0, cfg.Requests)
	}
	total := cfg.Warmup + cfg.Requests
	for k := 0; k < total; k++ {
		if between != nil {
			between(k)
		}
		req, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("sim: request source exhausted after %d of %d requests", k, total)
		}
		if req.Server < 0 || req.Server >= n {
			return nil, fmt.Errorf("sim: request %d names server %d of %d", k, req.Server, n)
		}
		measured := k >= cfg.Warmup
		hops, _ := st.Step(req, measured)
		if measured {
			rt := cfg.FirstHopMs + cfg.PerHopMs*hops
			totalRT += rt
			totalHops += hops
			if cfg.KeepResponseTimes {
				rts = append(rts, rt)
			}
		}
	}
	m := st.Metrics()
	m.ResponseTimesMs = rts
	m.finalize(&cfg, totalRT, totalHops)
	return m, nil
}

// stepAll is replay for sources that last the run.
func stepAll(t *testing.T, st *Stepper, cfg Config, src Source, between func(k int)) *Metrics {
	t.Helper()
	m, err := replay(st, cfg, src, between)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStepperMatchesRunSource: with no swap the exported stepper is
// RunSource — same counters, same sums — so the one-request-at-a-time
// stepper is the oracle for RunSource's server-grouped blocks. The cases
// put the warm-up and the run's end at and between block edges and run
// every dispatch arm: the static stream (λ > 0, so the bypass arm runs),
// a churning catalog, cluster columns, no caches and every policy.
func TestStepperMatchesRunSource(t *testing.T) {
	sc := smallScenario(4, 0.05)
	p := hybridPlacementFor(sc)
	cl, err := cluster.PopularityClusters(sc.Work, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placement.Hybrid(cl.DeriveSystem(sc.Sys), placement.HybridConfig{
		Specs:          cl.Specs(sc.Work, 0),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	static := func() Source { return streamSource{sc.Stream(xrand.New(11))} }
	dynamic := func() Source {
		return EndlessSource{S: workload.MustNewDynamicStream(sc.Work, dynConfig(), xrand.New(11))}
	}
	policy := func(pol cache.Policy) func(*Config) { return func(c *Config) { c.Policy = pol } }
	cases := []struct {
		name string
		src  func() Source
		p    *core.Placement
		edit func(*Config)
	}{
		{"static", static, p, nil},
		{"dynamic", dynamic, p, nil},
		{"no warm-up", static, p, func(c *Config) { c.Warmup = 0 }},
		{"shorter than a block", static, p, func(c *Config) { c.Requests, c.Warmup = 1500, 700 }},
		{"whole blocks", static, p, func(c *Config) { c.Requests, c.Warmup = 3*cancelEvery, cancelEvery }},
		// The first block is the short one, so the warm-up still ends
		// at a block edge: this case covers a short first block.
		{"warm-up ends mid-block", static, p, func(c *Config) { c.Requests, c.Warmup = 2*cancelEvery, cancelEvery+100 }},
		{"clusters", static, res.Placement, func(c *Config) { c.UnitOf = cl.UnitOf }},
		{"no cache", static, p, func(c *Config) { c.UseCache = false }},
		{"response times off", static, p, func(c *Config) { c.KeepResponseTimes = false }},
		{"fifo", static, p, policy(cache.PolicyFIFO)},
		{"lfu", static, p, policy(cache.PolicyLFU)},
		{"delayed-lru", static, p, policy(cache.PolicyDelayedLRU)},
		{"random", static, p, policy(cache.PolicyRandom)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig(true) // keeps response times
			cfg.Requests, cfg.Warmup = 40000, 20000
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			want, err := RunSource(context.Background(), sc, tc.p, cfg, tc.src())
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewStepper(sc, tc.p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := stepAll(t, st, cfg, tc.src(), nil)
			if want.Bypass == 0 || (tc.name == "dynamic" && (want.Perished == 0 || want.StaleReplica == 0)) {
				t.Fatalf("run exercised too little: %+v", want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stepper differs from RunSource:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// FuzzRunSourceMatchesStepper: on any request list — servers and sites
// out of range, withdrawn and republished content, uncacheable requests,
// any warm-up split and run length, a source that runs out — RunSource
// returns what a Stepper replay returns, errors included, and
// RunSourceParallel on one to four goroutines what RunSource returns,
// trace bytes included.
//
// The input is a 5-byte header and 4 bytes per request. Header: the run
// length (2 bytes, little-endian; up to three shared blocks), the
// warm-up's share of it in 256ths, then flags — bit 0 caches off, bits
// 1–3 the policy, bit 4 a source of half the run's length, bit 5
// tracing, bit 6 generation 1 placed — and the goroutine count less one
// (mod 4). The list repeats to the run's length.
func FuzzRunSourceMatchesStepper(f *testing.F) {
	sc := smallScenario(4, 0)
	p := hybridPlacementFor(sc)
	n, sites := sc.Sys.N(), sc.Sys.M()
	policies := []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU, cache.PolicyDelayedLRU, cache.PolicyRandom}
	f.Add([]byte{0x00, 0x30, 64, 0, 1, 1, 2, 3, 0, 4, 5, 6, 1, 7, 1, 99, 4})
	f.Add([]byte{0x10, 0x10, 128, 1 << 5, 1, 255, 0, 1, 0, 3, 254, 2, 2})
	f.Add([]byte{0x00, 0x20, 10, 1<<4 | 1<<5 | 1<<6, 1, 2, 3, 4, 6, 5, 2, 9, 5, 254, 1, 1, 0})
	f.Add([]byte{0x00, 0x50, 128, 1 << 5, 3, 0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 3, 1, 3, 3, 4, 0, 4, 4, 5, 0, 5, 5, 6, 1, 6, 6, 7, 0, 7, 7, 8, 0})
	f.Add([]byte{0xff, 0xbf, 200, 1 << 4, 1, 3, 1, 50, 0, 6, 3, 7, 1, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		hdr, body := data[:5], data[5:]
		list := make([]workload.Request, len(body)/4)
		for i := range list {
			b := body[4*i : 4*i+4]
			list[i] = workload.Request{
				Server:     outOfRange(b[0], n),
				Site:       outOfRange(b[1], sites),
				Object:     1 + int(b[2])%100,
				Cacheable:  b[3]&1 == 0,
				Perished:   b[3]&2 != 0,
				Generation: int(b[3]>>2) % 3,
			}
		}
		total := 1 + (int(hdr[0])|int(hdr[1])<<8)%(3*sharedBlockLen)
		flags := hdr[3]
		cfg := fastConfig(flags&1 == 0)
		cfg.Warmup = total * int(hdr[2]) / 256
		cfg.Requests = total - cfg.Warmup
		cfg.Policy = policies[int(flags>>1&7)%len(policies)]
		if flags&(1<<6) != 0 {
			cfg.PlacedGeneration = make([]int, sites)
			for j := range cfg.PlacedGeneration {
				cfg.PlacedGeneration[j] = 1
			}
		}
		avail := total
		if flags&(1<<4) != 0 {
			avail = total / 2
		}
		mk := func() Source {
			reqs := make([]workload.Request, avail)
			for i := range reqs {
				reqs[i] = list[i%len(list)]
			}
			return &sliceSource{reqs: reqs}
		}
		traced := func(cfg Config, buf *bytes.Buffer) Config {
			if flags&(1<<5) != 0 {
				cfg.Tracer = obs.NewTracer(buf)
			}
			return cfg
		}

		st, err := NewStepper(sc, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := replay(st, cfg, mk(), nil)
		var seqBuf, parBuf bytes.Buffer
		seqCfg := traced(cfg, &seqBuf)
		got, err := RunSource(context.Background(), sc, p, seqCfg, mk())
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("RunSource error %v, stepper %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RunSource differs from the stepper:\n got: %+v\nwant: %+v", got, want)
		}
		parCfg := traced(cfg, &parBuf)
		parCfg.Parallelism = 1 + int(hdr[4])%4
		par, parErr := RunSourceParallel(context.Background(), sc, p, parCfg, mk())
		if fmt.Sprint(parErr) != fmt.Sprint(err) {
			t.Fatalf("RunSourceParallel error %v, RunSource %v", parErr, err)
		}
		if !reflect.DeepEqual(par, got) {
			t.Fatalf("RunSourceParallel differs from RunSource:\n got: %+v\nwant: %+v", par, got)
		}
		if seqCfg.Tracer == nil || err != nil {
			return
		}
		if err := errors.Join(seqCfg.Tracer.Flush(), parCfg.Tracer.Flush()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqBuf.Bytes(), parBuf.Bytes()) {
			t.Fatal("RunSourceParallel's trace differs from RunSource's")
		}
	})
}

// outOfRange maps a fuzz byte to an index below n, except 255 to -1 and
// 254 to n: a request naming a server or site that does not exist.
func outOfRange(b byte, n int) int {
	switch b {
	case 255:
		return -1
	case 254:
		return n
	}
	return int(b) % n
}

// TestStepperSwapToInstalledPlacementIsNoop: re-installing the placement
// already in force, however often, moves no counter and no latency.
func TestStepperSwapToInstalledPlacementIsNoop(t *testing.T) {
	sc := smallScenario(4, 0.05)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	cfg.Requests, cfg.Warmup = 30000, 10000
	run := func(swapEvery int) *Metrics {
		st, err := NewStepper(sc, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stepAll(t, st, cfg, streamSource{sc.Stream(xrand.New(5))}, func(k int) {
			if swapEvery > 0 && k%swapEvery == 0 {
				if err := st.SetPlacement(p, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if plain, swapped := run(0), run(777); !reflect.DeepEqual(plain, swapped) {
		t.Errorf("no-op swaps changed the run:\nplain:   %+v\nswapped: %+v", plain, swapped)
	}
}

// TestStepperSwapResizesCaches: after a swap to q every cache holds at
// most q.Free(i) bytes and q's replicas serve; swapping back to the
// replica-free placement gives the space back to the caches.
func TestStepperSwapResizesCaches(t *testing.T) {
	sc := smallScenario(4, 0)
	caching, q := core.NewPlacement(sc.Sys), hybridPlacementFor(sc)
	if q.Replicas() == 0 {
		t.Fatal("hybrid placement placed no replicas")
	}
	cfg := fastConfig(true)
	st, err := NewStepper(sc, caching, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := sc.Stream(xrand.New(9))
	serve := func(n int) {
		for k := 0; k < n; k++ {
			st.Step(stream.Next(), true)
		}
	}
	checkFits := func(p *core.Placement) {
		t.Helper()
		for i, c := range st.sh.caches {
			if c.Capacity() != p.Free(i) || c.Used() > p.Free(i) {
				t.Errorf("server %d: cache holds %d of %d bytes, placement leaves %d", i, c.Used(), c.Capacity(), p.Free(i))
			}
		}
	}
	serve(30000)
	if m := st.Metrics(); m.LocalReplica != 0 || m.CacheHits == 0 {
		t.Fatalf("pure caching phase: %+v", m)
	}
	shrunk := false
	for i, c := range st.sh.caches {
		shrunk = shrunk || c.Used() > q.Free(i)
	}
	if !shrunk {
		t.Fatal("warm caches already fit the hybrid's free space; the swap would evict nothing")
	}
	if err := st.SetPlacement(q, nil); err != nil {
		t.Fatal(err)
	}
	checkFits(q)
	serve(30000)
	checkFits(q)
	local := st.Metrics().LocalReplica
	if local == 0 {
		t.Fatal("no request served by a replica after the swap")
	}
	if err := st.SetPlacement(caching, nil); err != nil {
		t.Fatal(err)
	}
	checkFits(caching)
	serve(1000)
	if st.Metrics().LocalReplica != local {
		t.Fatal("replicas still serving after the swap back to pure caching")
	}
	if got := st.Metrics().Requests; got != 61000 {
		t.Fatalf("Requests = %d, want 61000", got)
	}
}

// TestStepperSwapInstallsPlacedGenerations: the generations handed to
// SetPlacement decide whether a republished site's replicas serve.
func TestStepperSwapInstallsPlacedGenerations(t *testing.T) {
	sc := smallScenario(4, 0)
	p := hybridPlacementFor(sc)
	ri, rj := -1, -1
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
	st, err := NewStepper(sc, p, fastConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	req := workload.Request{Server: ri, Site: rj, Object: 1, Cacheable: true, Generation: 1}
	if _, src := st.Step(req, true); src == obs.SourceReplica || st.Metrics().StaleReplica != 1 {
		t.Fatalf("generation-0 replica served generation 1 (source %q)", src)
	}
	gens := make([]int, sc.Sys.M())
	gens[rj] = 1
	if err := st.SetPlacement(p, gens); err != nil {
		t.Fatal(err)
	}
	if hops, src := st.Step(req, true); src != obs.SourceReplica || hops != 0 {
		t.Fatalf("refreshed replica did not serve: source %q, %v hops", src, hops)
	}
}

// TestStepperRejectsMisshapenInput: a placement or generation list of
// another shape is an error, not an index panic mid-run.
func TestStepperRejectsMisshapenInput(t *testing.T) {
	sc := smallScenario(4, 0)
	cut := func(rows [][]float64, n, m int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = rows[i][:m]
		}
		return out
	}
	smaller := &core.System{
		CostServer: cut(sc.Sys.CostServer, 4, 4),
		CostOrigin: cut(sc.Sys.CostOrigin, 4, sc.Sys.M()),
		SiteBytes:  sc.Sys.SiteBytes,
		Capacity:   sc.Sys.Capacity[:4],
		Demand:     cut(sc.Sys.Demand, 4, sc.Sys.M()),
	}
	if err := smaller.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(true)
	if _, err := NewStepper(sc, core.NewPlacement(smaller), cfg); err == nil {
		t.Error("NewStepper accepted a 4-server placement for an 8-server scenario")
	}
	st, err := NewStepper(sc, core.NewPlacement(sc.Sys), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetPlacement(core.NewPlacement(smaller), nil); err == nil {
		t.Error("SetPlacement accepted a 4-server placement")
	}
	if err := st.SetPlacement(core.NewPlacement(sc.Sys), make([]int, 3)); err == nil {
		t.Error("SetPlacement accepted 3 generations for 8 columns")
	}
	// A placement over drifted demand on the same deployment is fine.
	drifted, err := sc.Sys.WithDemand(sc.Sys.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetPlacement(core.NewPlacement(drifted), nil); err != nil {
		t.Errorf("SetPlacement refused a same-shape system: %v", err)
	}
}

// TestUnreachableMissAdmitsNothing: a miss with no reachable source
// fetched nothing, so it leaves nothing in the cache. Two misses for one
// object of a site whose origin is at +Inf both come back unavailable.
func TestUnreachableMissAdmitsNothing(t *testing.T) {
	sc := smallScenario(4, 0)
	sys := *sc.Sys
	sys.CostOrigin = make([][]float64, sys.N())
	for i, row := range sc.Sys.CostOrigin {
		sys.CostOrigin[i] = append([]float64(nil), row...)
		sys.CostOrigin[i][0] = math.Inf(1)
	}
	st, err := NewStepper(sc, core.NewPlacement(&sys), fastConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	req := workload.Request{Server: 2, Site: 0, Object: 1, Cacheable: true}
	for k := 0; k < 2; k++ {
		if hops, src := st.Step(req, true); !math.IsInf(hops, 1) || src == obs.SourceCache {
			t.Fatalf("request %d: source %q, %v hops; want a miss at +Inf", k, src, hops)
		}
	}
	if m := st.Metrics(); m.CacheHits != 0 || m.CacheMisses != 2 {
		t.Fatalf("hits %d, misses %d; want 0 and 2", m.CacheHits, m.CacheMisses)
	}
}
