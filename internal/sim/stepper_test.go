package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// stepAll drives src through st the way RunSource's loop does and
// finishes the stepper's Metrics with the driver-side sums, so the
// result is comparable field by field with RunSource's.
func stepAll(t *testing.T, st *Stepper, cfg Config, src Source, between func(k int)) *Metrics {
	t.Helper()
	var totalRT, totalHops float64
	rts := make([]float64, 0, cfg.Requests)
	for k := 0; k < cfg.Warmup+cfg.Requests; k++ {
		if between != nil {
			between(k)
		}
		req, ok := src.Next()
		if !ok {
			t.Fatalf("source exhausted at %d", k)
		}
		measured := k >= cfg.Warmup
		hops, _ := st.Step(req, measured)
		if measured {
			rt := cfg.FirstHopMs + cfg.PerHopMs*hops
			totalRT += rt
			totalHops += hops
			rts = append(rts, rt)
		}
	}
	m := st.Metrics()
	m.ResponseTimesMs = rts
	m.finalize(&cfg, totalRT, totalHops)
	return m
}

// TestStepperMatchesRunSource: with no swap the exported stepper is
// RunSource — same counters, same sums — on the static stream (λ > 0,
// so the bypass arm runs) and on a churning catalog.
func TestStepperMatchesRunSource(t *testing.T) {
	sc := smallScenario(4, 0.05)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	cfg.Requests, cfg.Warmup = 40000, 20000
	sources := map[string]func() Source{
		"static": func() Source { return streamSource{sc.Stream(xrand.New(11))} },
		"dynamic": func() Source {
			return EndlessSource{S: workload.MustNewDynamicStream(sc.Work, dynConfig(), xrand.New(11))}
		},
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			want, err := RunSource(context.Background(), sc, p, cfg, mk())
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewStepper(sc, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := stepAll(t, st, cfg, mk(), nil)
			if want.Bypass == 0 || (name == "dynamic" && (want.Perished == 0 || want.StaleReplica == 0)) {
				t.Fatalf("run exercised too little: %+v", want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stepper differs from RunSource:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
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
