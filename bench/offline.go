package main

import (
	"fmt"
	"runtime"
	"time"
)

// placeSpec sizes a placement section: per round, one cold
// placement.Hybrid solve and once round the cycle of warm
// placement.Incremental repairs, on the paper's §5.1 instance grown Scale
// times (0: a tenth of the objects).
type placeSpec struct {
	Scale int
}

const (
	// driftRows is the share of server rows a demand drift rescales.
	driftRows = 0.05
	// driftPatterns is the number of drifted demand matrices the warm
	// repairs cycle through. What a repair costs depends on which rows
	// drifted and whether the placement moves; a cycle of several keeps
	// one seed's draw from deciding place_warm_ms.
	driftPatterns = 32
)

// placeRun is one placement section in progress.
type placeRun struct {
	spec    placeSpec
	seed    uint64
	speed   *speedometer
	o       *offline
	buildMs float64
	// demand is the cycle of demand matrices: the base demand with
	// driftRows of its rows rescaled, one independent draw from the run's
	// seed each. Cold solves run on demand[0]; the warm chain repairs from
	// each to the next and round again.
	demand [driftPatterns]system
	pure   float64 // D of pure caching on demand[0]

	sol    solution  // the last cold solution
	coldS  []float64 // seconds, one per cold solve: the same solve every time
	warm   *warmSolver
	warmMs [driftPatterns][]float64 // [repair of the cycle][repetition]: the same repair every time
	dirty  []float64
	shared float64 // SharedTable hit fraction after the last repair
	solves int
}

// setup builds the instance, drifts its demand by the seed and prices
// the pure-caching baseline.
func (p *placeRun) setup() (err error) {
	var d time.Duration
	if p.o, d, err = buildOffline(p.spec.Scale); err != nil {
		return err
	}
	p.buildMs = float64(d) / 1e6
	for k := range p.demand {
		if p.demand[k], err = p.o.drift(p.o.base(), driftRows, p.seed, k); err != nil {
			return err
		}
	}
	p.pure, err = p.o.pureCachingCost(p.demand[0])
	return err
}

func (p *placeRun) teardown() {}

func (p *placeRun) ops() (attempted, failed int, firstErr string) { return p.solves, 0, "" }

// round is the placement section's share of one round.
func (p *placeRun) round(spans *spanLog) (err error) {
	runtime.GC()
	p.speed.read()
	var s float64
	spans.time("placement.Hybrid", func() { p.sol, s, err = p.o.coldSolve(p.demand[0]) })
	if err != nil {
		return err
	}
	p.solves++
	p.coldS = append(p.coldS, s)
	if p.warm == nil {
		// A cold Incremental captures the solver state the chain of
		// repairs starts from; nothing times it.
		p.warm = &warmSolver{o: p.o}
		if _, _, _, _, err := p.warm.repair(p.demand[0]); err != nil {
			return err
		}
		p.solves++
	}
	runtime.GC()
	p.speed.read()
	for k := range p.demand { // the state sits at demand[k]
		var warm bool
		var rows int
		d := spans.time("placement.Incremental", func() {
			_, warm, rows, p.shared, err = p.warm.repair(p.demand[(k+1)%driftPatterns])
		})
		if err != nil {
			return err
		}
		p.solves++
		if !warm {
			return fmt.Errorf("a repair fell back to a cold solve (%d dirty rows)", rows)
		}
		p.warmMs[k] = append(p.warmMs[k], float64(d)/1e6)
		p.dirty = append(p.dirty, float64(rows))
	}
	return nil
}

// finish reduces the rounds to the end-to-end metrics.
func (p *placeRun) finish(out results) error {
	out["place_cold_s"] = quietQuartile(p.coldS)
	rel := p.sol.Cost / p.pure
	if !(rel > 0 && rel <= 1) {
		return fmt.Errorf("place_cost_rel = %v (hybrid D %v, pure caching D %v): the hybrid must not cost more than pure caching", rel, p.sol.Cost, p.pure)
	}
	out["place_cost_rel"] = rel
	// The repairs of one cycle, averaged.
	out["place_warm_ms"] = quietSum(p.warmMs[:]) / driftPatterns
	return nil
}

// layers adds the per-layer probes of the placement stack.
func (p *placeRun) layers(spans *spanLog, out results) (err error) {
	sys, sol := p.demand[0], p.sol
	out["scenario.build_ms"] = p.buildMs
	out["placement.warm_dirty_rows"] = median(p.dirty)
	out["lrumodel.shared_hit_frac"] = p.shared

	// Explain counters repeat exactly: two solves must agree.
	c1, err := p.o.explainSolve(sys)
	if err != nil {
		return err
	}
	c2, err := p.o.explainSolve(sys)
	if err != nil {
		return err
	}
	if c1 != c2 {
		return fmt.Errorf("explain counters differ between two solves of one input: %+v vs %+v", c1, c2)
	}
	if c1.Steps != len(sol.Steps) {
		return fmt.Errorf("explain hook saw %d steps, the result lists %d", c1.Steps, len(sol.Steps))
	}
	out["placement.steps"] = float64(c1.Steps)
	out["placement.heap_pops"] = float64(c1.HeapPops)
	out["placement.stale_reevals"] = float64(c1.StaleReevals)
	out["placement.superseded"] = float64(c1.Superseded)

	var approx solution
	d := spans.time("placement.Hybrid(eps=1e-2)", func() { approx, err = p.o.approxSolve(sys) })
	if err != nil {
		return err
	}
	out["placement.approx_s"] = d.Seconds()
	out["placement.approx_cost_delta"] = (approx.Cost - sol.Cost) / sol.Cost
	d = spans.time("placement.GreedyGlobal", func() { _, err = p.o.greedySolve(sys) })
	if err != nil {
		return err
	}
	out["placement.greedy_ms"] = float64(d) / 1e6
	p.solves += 4
	var predicted float64
	d = spans.time("placement.PredictCostOpts", func() { predicted, err = p.o.predictCost(sol.p) })
	if err != nil {
		return err
	}
	if diff := (predicted - sol.Cost) / sol.Cost; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("PredictCostOpts prices the hybrid placement at %v, the solver at %v", predicted, sol.Cost)
	}
	out["placement.predict_cost_ms"] = float64(d) / 1e6
	if out["core.replicate_ns"], err = p.o.replayReplicate(sys, sol.Steps, 200); err != nil {
		return err
	}
	out["core.clone_us"] = cloneUs(sol.p, 200)
	out["lrumodel.build_ms"], out["lrumodel.eval_ns"], err = p.o.modelProbe(200_000)
	return err
}

// simSpec sizes a simulation section: per round, one sim.Run and one
// sim.RunParallel over a hybrid placement of the §5.1 instance grown
// Scale times. Every run simulates Warmup + Requests requests.
type simSpec struct {
	Scale            int
	Requests, Warmup int
	// Draws is the request count of the stream and cache probes.
	Draws int
}

// simRun is one simulation section in progress.
type simRun struct {
	spec  simSpec
	seed  uint64
	speed *speedometer
	o     *offline
	sol   solution

	// seq and par hold the runs' timings as [piece][round]; see
	// stampedSource.
	seq, par [][]float64
	first    simOut
	sims     int
}

// setup builds the instance and its hybrid placement (with the ε engine,
// the fastest the program offers; the simulator does not care which
// engine placed the replicas).
func (s *simRun) setup() (err error) {
	if s.o, _, err = buildOffline(s.spec.Scale); err != nil {
		return err
	}
	s.sol, err = s.o.approxSolve(s.o.base())
	return err
}

func (s *simRun) perRun() float64 { return float64(s.spec.Requests + s.spec.Warmup) }

func (s *simRun) teardown() {}

func (s *simRun) ops() (attempted, failed int, firstErr string) { return s.sims, 0, "" }

// round is the simulation section's share of one round: one sequential and
// one parallel run, which must both return what the first run did.
func (s *simRun) round(spans *spanLog) (err error) {
	var a, b simOut
	var pieces []float64
	runtime.GC()
	s.speed.read()
	spans.time("sim.Run", func() { a, pieces, err = s.o.simRun(s.sol.p, s.spec.Requests, s.spec.Warmup, s.seed) })
	if err != nil {
		return err
	}
	s.seq = appendPieces(s.seq, pieces)
	runtime.GC()
	s.speed.read()
	spans.time("sim.RunParallel", func() {
		b, pieces, err = s.o.simRunParallel(s.sol.p, s.spec.Requests, s.spec.Warmup, s.seed, loadWorkers())
	})
	if err != nil {
		return err
	}
	s.par = appendPieces(s.par, pieces)
	s.sims += 2
	if a != b {
		return fmt.Errorf("sim.Run and sim.RunParallel disagree on seed %d: %+v vs %+v", s.seed, a, b)
	}
	if s.sims == 2 {
		s.first = a
	} else if a != s.first {
		return fmt.Errorf("sim.Run does not repeat on seed %d: %+v vs %+v", s.seed, a, s.first)
	}
	return nil
}

// finish reduces the rounds to the end-to-end metrics.
func (s *simRun) finish(out results) error {
	if s.first.Requests != s.spec.Requests {
		return fmt.Errorf("sim.Run measured %d requests, want %d", s.first.Requests, s.spec.Requests)
	}
	out["sim_rps"] = s.perRun() / quietSum(s.seq)
	out["sim_par_rps"] = s.perRun() / quietSum(s.par)
	return nil
}

// layers adds the per-layer probes of the simulator stack.
func (s *simRun) layers(spans *spanLog, out results) (err error) {
	out["sim.ns_per_req"] = 1e9 / out["sim_rps"]
	out["sim.par_speedup"] = out["sim_par_rps"] / out["sim_rps"]
	out["sim.hit_ratio"] = s.first.HitRatio
	out["sim.local_frac"] = s.first.LocalFrac

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, _, err = s.o.simRun(s.sol.p, s.spec.Requests, s.spec.Warmup, s.seed); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	out["sim.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / s.perRun()

	const reps = 3
	var dyn, traced [][]float64
	for i := 0; i < reps; i++ {
		var pieces []float64
		spans.time("sim.RunSource(dynamic)", func() {
			_, pieces, err = s.o.simRunDynamic(s.sol.p, s.spec.Requests, s.spec.Warmup, s.seed)
		})
		if err != nil {
			return err
		}
		dyn = appendPieces(dyn, pieces)
		spans.time("sim.Run(traced)", func() {
			_, pieces, err = s.o.simRunTraced(s.sol.p, s.spec.Requests, s.spec.Warmup, s.seed)
		})
		if err != nil {
			return err
		}
		traced = appendPieces(traced, pieces)
	}
	s.sims += 1 + 2*reps
	out["sim.dynamic_rps"] = s.perRun() / quietSum(dyn)
	out["sim.trace_overhead_frac"] = 1 - quietSum(s.seq)/quietSum(traced)

	if out["workload.next_ns"], out["workload.dynamic_next_ns"], err = s.o.streamNextNs(s.seed, s.spec.Draws); err != nil {
		return err
	}
	op, hit, evict := s.o.lruReplay(s.seed, s.spec.Draws)
	_, hit2, evict2 := s.o.lruReplay(s.seed, s.spec.Draws)
	if hit != hit2 || evict != evict2 {
		return fmt.Errorf("cache replay does not repeat on seed %d: hit ratio %v vs %v", s.seed, hit, hit2)
	}
	out["cache.lru_op_ns"], out["cache.hit_ratio"], out["cache.evictions_per_kreq"] = op, hit, evict
	return nil
}
