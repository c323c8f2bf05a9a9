package main

// boot.go is the benchmark's only contact with the program's Go API.
// Everything else in this directory is standard library plus the types
// declared here, so a change that merges the edge stacks or collapses
// the placement engines edits this file at most, never the workloads or
// the metrics. Live traffic does not go through here at all: it is plain
// HTTP to /obj/{site}/{object}.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/clusterd"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/httpcdn"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traceanalysis"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ---------------------------------------------------------------- live

// clusterEdges is the deployment size of every live workload.
const clusterEdges = 2

// reportEvery is the cadence at which edges flush demand to the control
// plane.
const reportEvery = 50 * time.Millisecond

// clusterSpec selects one live deployment.
type clusterSpec struct {
	CapacityFrac float64
	// Churn switches hysteresis and cool-downs off, so every non-empty
	// reconcile plan is pushed to the edges.
	Churn bool
	// Traced hands every edge a tracer; spans stay in memory.
	Traced bool
}

// cluster is a control plane, an origin and clusterEdges edges on
// loopback sockets in this process.
type cluster struct {
	sc       *scenario.Scenario
	control  *clusterd.ControlPlane
	origin   *clusterd.Origin
	edges    []*clusterd.Edge
	traceBuf *lockedBuffer
	tracer   *obs.Tracer
}

// lockedBuffer is where the edges' tracer writes: the tracer flushes into
// it under its own lock, programSpans empties it under this one.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

// bootCluster starts and registers every component and waits until the
// control plane lists them all.
func bootCluster(spec clusterSpec) (c *cluster, err error) {
	params := clusterd.Params{Edges: clusterEdges, Seed: 1, CapacityFrac: spec.CapacityFrac}
	ccfg := clusterd.ControlConfig{
		Addr: "127.0.0.1:0",
		// The benchmark calls Reconcile itself, at fixed points of the
		// request sequence.
		Interval:    time.Hour,
		ReportEvery: reportEvery,
	}
	if spec.Churn {
		ccfg.Hysteresis, ccfg.CooldownRounds = -1, -1
	}
	c = &cluster{}
	defer func() {
		if err != nil {
			c.shutdown()
			c = nil
		}
	}()
	if c.sc, err = params.Build(); err != nil {
		return c, err
	}
	if c.control, err = clusterd.StartControl(params, ccfg); err != nil {
		return c, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c.origin, err = clusterd.StartOrigin(params, clusterd.OriginConfig{Addr: "127.0.0.1:0"}); err != nil {
		return c, err
	}
	if err = c.origin.Register(ctx, nil, c.control.URL()); err != nil {
		return c, err
	}
	if spec.Traced {
		c.traceBuf = &lockedBuffer{}
		c.tracer = obs.NewTracer(c.traceBuf)
	}
	for i := 0; i < clusterEdges; i++ {
		e, err := clusterd.StartEdge(params, clusterd.EdgeConfig{ID: i, Addr: "127.0.0.1:0", Tracer: c.tracer})
		if err != nil {
			return c, err
		}
		c.edges = append(c.edges, e)
		if err := e.Register(ctx, c.control.URL()); err != nil {
			return c, err
		}
	}
	_, err = clusterd.WaitMembers(ctx, nil, c.control.URL())
	return c, err
}

// shutdown stops edges, origin and control plane, in that order, and
// returns once every server has drained.
func (c *cluster) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, e := range c.edges {
		e.Shutdown(ctx)
	}
	if c.origin != nil {
		c.origin.Shutdown(ctx)
	}
	if c.control != nil {
		c.control.Shutdown(ctx)
	}
}

// target describes the deployment to the load generator.
func (c *cluster) target() target {
	t := target{Sites: c.sc.Sys.M(), Size: c.objectSize, Verify: httpcdn.VerifyBody, Sources: obs.Sources}
	for _, e := range c.edges {
		t.EdgeURLs = append(t.EdgeURLs, e.URL())
	}
	return t
}

func (c *cluster) originURL() string { return c.origin.URL() }

// objectSize is the payload size the deployment serves for an object:
// the catalog size capped at the edges' default 64 KiB.
func (c *cluster) objectSize(site, object int) int64 {
	sz := c.sc.Work.Size(site, object)
	if sz > maxBody {
		sz = maxBody
	}
	if sz < 1 {
		sz = 1
	}
	return sz
}

// catalogSize is the number of objects the deployment serves.
func (c *cluster) catalogSize() int { return c.sc.Sys.M() * c.sc.Work.Cfg.ObjectsPerSite }

// requests draws n requests of the deployment's catalog from seed.
func (c *cluster) requests(seed uint64, n int) []request {
	st := workload.NewStream(c.sc.Work, xrand.New(seed))
	out := make([]request, n)
	for i := range out {
		r := st.Next()
		out[i] = request{Edge: r.Server, Site: r.Site, Object: r.Object}
	}
	return out
}

// reconcile runs one control round and returns its wall time, pushes to
// the edges included.
func (c *cluster) reconcile() (ms float64, applied bool, err error) {
	start := time.Now()
	rep, err := c.control.Controller().Reconcile()
	if err != nil {
		return 0, false, err
	}
	return float64(time.Since(start)) / 1e6, rep.Outcome == control.OutcomeApplied, nil
}

// modify bumps an object's version at the origin.
func (c *cluster) modify(site, object int) { c.origin.ModifyObject(site, object) }

// auditDurationsMs returns the controller's own duration of each
// retained reconcile round.
func (c *cluster) auditDurationsMs() []float64 {
	var out []float64
	for _, rec := range c.control.Controller().Audit() {
		out = append(out, rec.DurationMs)
	}
	return out
}

// clusterCounters is a snapshot of the components' registries.
type clusterCounters struct {
	Errors, NotFound, OriginFetches, ReportBatches int64
}

func (a clusterCounters) plus(b clusterCounters) clusterCounters {
	return clusterCounters{a.Errors + b.Errors, a.NotFound + b.NotFound, a.OriginFetches + b.OriginFetches, a.ReportBatches + b.ReportBatches}
}

func (a clusterCounters) minus(b clusterCounters) clusterCounters {
	return clusterCounters{a.Errors - b.Errors, a.NotFound - b.NotFound, a.OriginFetches - b.OriginFetches, a.ReportBatches - b.ReportBatches}
}

func (c *cluster) counters() clusterCounters {
	var cc clusterCounters
	for i, e := range c.edges {
		l := obs.Labels{"edge": strconv.Itoa(i)}
		cc.Errors += e.Registry().Counter("cdn_edge_errors_total", "", l).Value()
		cc.NotFound += e.Registry().Counter("cdn_edge_notfound_total", "", l).Value()
	}
	cc.OriginFetches = c.origin.Registry().Counter("cdn_origin_requests_total", "", nil).Value()
	cc.ReportBatches = c.control.Registry().Counter("cdn_cluster_report_batches_total", "", nil).Value()
	return cc
}

// programSpans flushes the edges' tracer and returns, and forgets, the
// JSONL stream written since the last call.
func (c *cluster) programSpans() ([]byte, error) {
	if c.tracer == nil {
		return nil, nil
	}
	if err := c.tracer.Flush(); err != nil {
		return nil, err
	}
	return c.traceBuf.take(), nil
}

// buildTraces reconstructs request trees from a JSONL span stream and
// counts the upstream attempts beyond the first.
func buildTraces(jsonl []byte) (roots []*traceNode, retries int, err error) {
	var corpus traceanalysis.Corpus
	if err := corpus.Load(bytes.NewReader(jsonl)); err != nil {
		return nil, 0, err
	}
	for _, s := range corpus.Spans {
		if s.Kind == obs.SpanUpstream && s.Attrs["attempt"] != "" && s.Attrs["attempt"] != "1" {
			retries++
		}
	}
	var conv func(n *traceanalysis.Node) *traceNode
	conv = func(n *traceanalysis.Node) *traceNode {
		out := &traceNode{Kind: n.Kind, StartUs: n.StartUs, DurUs: n.DurUs}
		for _, ch := range n.Children {
			out.Children = append(out.Children, conv(ch))
		}
		return out
	}
	for _, tr := range corpus.BuildTraces() {
		roots = append(roots, conv(tr.Root))
	}
	return roots, retries, nil
}

// Probes of single serving-path layers.

// patternNsPerKiB times the payload generator over the given sizes.
func patternNsPerKiB(sizes []int64) float64 {
	var total int64
	start := time.Now()
	for i, sz := range sizes {
		httpcdn.WritePattern(io.Discard, i%8, 1+i%60, 0, sz)
		total += sz
	}
	return float64(time.Since(start)) / (float64(total) / 1024)
}

// verifyNsPerReq times the generator's full-body check over bodies of
// the given sizes.
func verifyNsPerReq(sizes []int64) float64 {
	var buf bytes.Buffer
	bodies := make([][]byte, len(sizes))
	for i, sz := range sizes {
		buf.Reset()
		httpcdn.WritePattern(&buf, 1, 1, 0, sz)
		bodies[i] = append([]byte(nil), buf.Bytes()...)
	}
	start := time.Now()
	for _, b := range bodies {
		if !httpcdn.VerifyBody(b, 1, 1, 0) {
			panic("bench: VerifyBody rejects WritePattern's own output")
		}
	}
	return float64(time.Since(start)) / float64(len(bodies))
}

// estimatorProbe times the control plane's demand tap (ObserveN) and one
// window close plus read-out (Roll + Demand) on a fresh sharded
// estimator of the deployment's shape.
func (c *cluster) estimatorProbe(reqs []request) (observeNs, rollDemandUs float64, err error) {
	est, err := control.NewShardedEstimator(control.EstimatorConfig{
		Servers: c.sc.Sys.N(), Sites: c.sc.Sys.M(),
	}, clusterd.DefaultShards, 0)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, r := range reqs {
		est.ObserveN(r.Edge, r.Site, 1)
	}
	observeNs = float64(time.Since(start)) / float64(len(reqs))
	const rolls = 200
	start = time.Now()
	for i := 0; i < rolls; i++ {
		est.ObserveN(i%c.sc.Sys.N(), i%c.sc.Sys.M(), 1)
		est.Roll()
		est.Demand()
	}
	return observeNs, float64(time.Since(start)) / 1e3 / rolls, nil
}

// ------------------------------------------------------------- offline

// offline is one placement/simulation instance: the paper's §5.1 setup
// grown by an integer factor (0: the smoke instance).
type offline struct {
	sc   *scenario.Scenario
	hcfg placement.HybridConfig
}

// buildOffline builds the scenario (timed: scenario.build_ms).
func buildOffline(scale int) (*offline, time.Duration, error) {
	cfg := scenario.Default()
	if scale == 0 {
		// The smoke instance: the §5.1 shape with a tenth of the objects.
		cfg.Workload.ObjectsPerSite = 200
	} else {
		cfg = scenario.Scale(cfg, scale)
	}
	start := time.Now()
	sc, err := scenario.Build(cfg)
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	return &offline{sc: sc, hcfg: placement.HybridConfig{
		Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes,
	}}, d, nil
}

// system is a demand matrix over the instance's fixed topology.
type system struct{ sys *core.System }

func (o *offline) base() system { return system{o.sc.Sys} }

// drift returns s with frac of its server rows rescaled cell by cell by
// a factor in [0.75, 1.25], rows and factors drawn from (seed, round):
// the rows an incremental repair towards or away from it has to rebuild.
func (o *offline) drift(s system, frac float64, seed uint64, round int) (system, error) {
	r := xrand.New(seed).Split("drift-" + strconv.Itoa(round))
	n := s.sys.N()
	demand := make([][]float64, n)
	for i := range demand {
		demand[i] = append([]float64(nil), s.sys.Demand[i]...)
	}
	rows := int(frac*float64(n) + 0.5)
	if rows < 1 {
		rows = 1
	}
	for _, i := range r.Perm(n)[:rows] {
		for j := range demand[i] {
			demand[i][j] *= 0.75 + 0.5*r.Float64()
		}
	}
	sys, err := s.sys.WithDemand(demand)
	return system{sys}, err
}

// solution is a checked placement with its objective.
type solution struct {
	p     *core.Placement
	Cost  float64 // predicted D under the solver's own model
	Steps []placement.Step
}

func checked(res *placement.Result, err error) (solution, error) {
	if err != nil {
		return solution{}, err
	}
	if err := res.Placement.CheckInvariants(); err != nil {
		return solution{}, fmt.Errorf("placement invariants: %w", err)
	}
	return solution{res.Placement, res.PredictedCost, res.Steps}, nil
}

// coldSolve is placement.Hybrid with the default configuration (auto
// engine, eq1 model), timed as a whole: nine tenths and more of a cold
// solve is the first evaluation of the benefit matrix, before the first
// hook fires, so there is no finer piece to time from outside.
func (o *offline) coldSolve(s system) (sol solution, seconds float64, err error) {
	start := time.Now()
	sol, err = checked(placement.Hybrid(s.sys, o.hcfg))
	return sol, time.Since(start).Seconds(), err
}

// approxSolve is the ε = 1e-2 engine.
func (o *offline) approxSolve(s system) (solution, error) {
	cfg := o.hcfg
	cfg.Epsilon = 1e-2
	return checked(placement.Hybrid(s.sys, cfg))
}

// greedySolve is the stand-alone replication baseline.
func (o *offline) greedySolve(s system) (solution, error) {
	return checked(placement.GreedyGlobal(s.sys), nil)
}

// explainCounts sums the Explain hook over one exact solve.
type explainCounts struct{ Steps, HeapPops, StaleReevals, Superseded int }

func (o *offline) explainSolve(s system) (explainCounts, error) {
	var c explainCounts
	cfg := o.hcfg
	cfg.Explain = func(e placement.ExplainStep) {
		c.Steps++
		c.HeapPops += e.HeapPops
		c.StaleReevals += e.StaleReevals
		c.Superseded += e.Superseded
	}
	_, err := checked(placement.Hybrid(s.sys, cfg))
	return c, err
}

// warmSolver chains placement.Incremental repairs.
type warmSolver struct {
	o     *offline
	state *placement.WarmState
}

// repair re-solves for s from the previous round's state (cold on the
// first call) and reports whether the warm path was taken.
func (w *warmSolver) repair(s system) (sol solution, warm bool, dirtyRows int, sharedHitFrac float64, err error) {
	res, state, st, err := placement.Incremental(w.state, s.sys, placement.IncrementalConfig{HybridConfig: w.o.hcfg})
	if err != nil {
		return solution{}, false, 0, 0, err
	}
	w.state = state
	sol, err = checked(res, nil)
	if lookups := st.Shared.Hits + st.Shared.Misses; lookups > 0 {
		sharedHitFrac = float64(st.Shared.Hits) / float64(lookups)
	}
	return sol, st.Warm, st.DirtyRows, sharedHitFrac, err
}

// predictCost prices any placement under the analytical model.
func (o *offline) predictCost(p *core.Placement) (float64, error) {
	return placement.PredictCostOpts(p, placement.CostOptions{
		Specs: o.hcfg.Specs, AvgObjectBytes: o.hcfg.AvgObjectBytes,
	})
}

// pureCachingCost is D with no replica anywhere: all storage is cache.
func (o *offline) pureCachingCost(s system) (float64, error) {
	return o.predictCost(placement.None(s.sys).Placement)
}

// replayReplicate replays a step list on an empty placement and returns
// the time per ReplicateTracked call.
func (o *offline) replayReplicate(s system, steps []placement.Step, rounds int) (nsPerOp float64, err error) {
	if len(steps) == 0 {
		return 0, nil
	}
	var total time.Duration
	for r := 0; r < rounds; r++ {
		p := core.NewPlacement(s.sys)
		start := time.Now()
		for _, st := range steps {
			if _, err := p.ReplicateTracked(st.Server, st.Site); err != nil {
				return 0, err
			}
		}
		total += time.Since(start)
	}
	return float64(total) / float64(rounds*len(steps)), nil
}

func cloneUs(p *core.Placement, rounds int) float64 {
	start := time.Now()
	for r := 0; r < rounds; r++ {
		_ = p.Clone()
	}
	return float64(time.Since(start)) / 1e3 / float64(rounds)
}

// modelProbe times the analytical cache model for one server row: the
// constructor, then SiteHitRatio over a sweep of cache sizes.
func (o *offline) modelProbe(evals int) (buildMs, evalNs float64, err error) {
	sys := o.sc.Sys
	start := time.Now()
	m, err := lrumodel.New(lrumodel.ModelConfig{
		Specs: o.hcfg.Specs, Weights: sys.Demand[0],
		AvgObjectBytes: o.hcfg.AvgObjectBytes, MaxCacheBytes: sys.Capacity[0],
	})
	if err != nil {
		return 0, 0, err
	}
	buildMs = float64(time.Since(start)) / 1e6
	var sink float64
	start = time.Now()
	for k := 0; k < evals; k++ {
		// 97 cache sizes, so the sweep reaches the model's memo as the
		// placement engines do.
		sink += m.SiteHitRatio(k%sys.M(), sys.Capacity[0]*int64(1+k%97)/97)
	}
	evalNs = float64(time.Since(start)) / float64(evals)
	if sink < 0 {
		return 0, 0, fmt.Errorf("negative hit ratio sum %v", sink)
	}
	return buildMs, evalNs, nil
}

// streamNextNs times the static and the dynamic request stream.
func (o *offline) streamNextNs(seed uint64, draws int) (static, dynamic float64, err error) {
	st := o.sc.Stream(xrand.New(seed))
	start := time.Now()
	for i := 0; i < draws; i++ {
		st.Next()
	}
	static = float64(time.Since(start)) / float64(draws)
	dyn, err := workload.NewDynamicStream(o.sc.Work, dynamicConfig, xrand.New(seed))
	if err != nil {
		return 0, 0, err
	}
	start = time.Now()
	for i := 0; i < draws; i++ {
		dyn.Next()
	}
	return static, float64(time.Since(start)) / float64(draws), nil
}

// lruReplay feeds the request stream to one LRU of server 0's capacity:
// Get, and Put on a miss.
func (o *offline) lruReplay(seed uint64, draws int) (opNs, hitRatio, evictionsPerKreq float64) {
	st := o.sc.Stream(xrand.New(seed))
	keys := make([]cache.Key, draws)
	sizes := make([]int64, draws)
	for i := range keys {
		r := st.Next()
		keys[i] = cache.Key{Site: r.Site, Object: r.Object}
		sizes[i] = o.sc.Work.Size(r.Site, r.Object)
	}
	lru := cache.NewLRU(o.sc.Sys.Capacity[0])
	start := time.Now()
	for i, k := range keys {
		if !lru.Get(k) {
			lru.Put(k, sizes[i])
		}
	}
	d := time.Since(start)
	stats := lru.Stats()
	return float64(d) / float64(draws), stats.HitRatio(), float64(stats.Evictions) / float64(draws) * 1000
}

// dynamicConfig is the Olmos-regime catalog churn of offline_sim.
var dynamicConfig = workload.DynamicConfig{PublishRate: 5e-5, PerishRate: 5e-5}

// simOut is the comparable part of a simulation's result: exact counts
// and means, equal between sequential and parallel runs of one seed.
type simOut struct {
	Requests                         int
	Local, Hits, Misses, Remote, Org int64
	MeanHops, MeanRTMs               float64
	HitRatio, LocalFrac              float64
}

func simResult(m *sim.Metrics, err error) (simOut, error) {
	if err != nil {
		return simOut{}, err
	}
	return simOut{
		Requests: m.Requests, Local: m.LocalReplica, Hits: m.CacheHits, Misses: m.CacheMisses,
		Remote: m.RemoteServer, Org: m.OriginFetch, MeanHops: m.MeanHops, MeanRTMs: m.MeanRTMs,
		HitRatio: m.HitRatio(), LocalFrac: m.LocalFraction(),
	}, nil
}

func simConfig(requests, warmup int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Requests, cfg.Warmup, cfg.KeepResponseTimes = requests, warmup, false
	return cfg
}

// stampEvery is the length, in requests, of one timed piece of a
// simulation: about a millisecond of the sequential simulator's work.
const stampEvery = 4096

// stampedSource is a request source for sim.RunSource that notes the time
// of every stampEvery-th draw. sim.Run itself is RunSource over the
// scenario's stream, so this times the simulator from outside in short
// pieces: the same requests, in the same order, in every run of one seed.
type stampedSource struct {
	next   requestStream
	n      int
	stamps []time.Time
}

func (s *stampedSource) Next() (workload.Request, bool) {
	if s.n%stampEvery == 0 {
		s.stamps = append(s.stamps, time.Now())
	}
	s.n++
	return s.next.Next(), true
}

// requestStream is an endless request sequence: the scenario's static
// stream or the churning catalog's.
type requestStream interface{ Next() workload.Request }

// simulate runs one simulation of cfg over the stamped source, through
// the sequential or the parallel runner, and returns its pieces in
// seconds: call to first draw, every stampEvery draws, last stamp to
// return (which, for the parallel runner, is its merge). The parallel
// runner's stamps are taken by its producer, which the workers' bounded
// queues hold back: they mark the pipeline's progress.
func (o *offline) simulate(p *core.Placement, cfg sim.Config, next requestStream, parallel bool) (simOut, []float64, error) {
	run := sim.RunSource
	if parallel {
		run = sim.RunSourceParallel
	}
	src := &stampedSource{next: next, stamps: make([]time.Time, 0, (cfg.Requests+cfg.Warmup)/stampEvery+1)}
	start := time.Now()
	out, err := simResult(run(context.Background(), o.sc, p, cfg, src))
	end := time.Now()
	if err != nil {
		return simOut{}, nil, err
	}
	pieces := make([]float64, 0, len(src.stamps)+1)
	last := start
	for _, t := range append(src.stamps, end) {
		pieces = append(pieces, t.Sub(last).Seconds())
		last = t
	}
	return out, pieces, nil
}

// simRun is sim.Run, which is RunSource over the scenario's stream.
func (o *offline) simRun(p *core.Placement, requests, warmup int, seed uint64) (simOut, []float64, error) {
	return o.simulate(p, simConfig(requests, warmup), o.sc.Stream(xrand.New(seed)), false)
}

// simRunParallel is sim.RunParallel on the given number of workers.
func (o *offline) simRunParallel(p *core.Placement, requests, warmup int, seed uint64, workers int) (simOut, []float64, error) {
	cfg := simConfig(requests, warmup)
	cfg.Parallelism = workers
	return o.simulate(p, cfg, o.sc.Stream(xrand.New(seed)), true)
}

// simRunDynamic is sim.RunSource over the churning catalog.
func (o *offline) simRunDynamic(p *core.Placement, requests, warmup int, seed uint64) (simOut, []float64, error) {
	dyn, err := workload.NewDynamicStream(o.sc.Work, dynamicConfig, xrand.New(seed))
	if err != nil {
		return simOut{}, nil, err
	}
	return o.simulate(p, simConfig(requests, warmup), dyn, false)
}

// simRunTraced is sim.Run with a per-request event tracer writing to
// nowhere: the cost of the simulator's own tracing.
func (o *offline) simRunTraced(p *core.Placement, requests, warmup int, seed uint64) (simOut, []float64, error) {
	cfg := simConfig(requests, warmup)
	cfg.Tracer = obs.NewTracer(io.Discard)
	return o.simulate(p, cfg, o.sc.Stream(xrand.New(seed)), false)
}
