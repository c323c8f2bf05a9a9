package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Every runner is one request loop. It draws the requests in blocks and
// steps each block server by server: a server's cache and counters depend
// only on its own requests, which it still sees in draw order, so every
// decision is the one a request-by-request Stepper makes, and one
// server's cache stays warm through its group. The same independence lets
// several goroutines step one block with no lock on the hot path, each
// claiming whole server groups and counting into its own Metrics. The
// outcomes are folded in draw order, so a run is bit-identical at every
// worker count, trace included.
//
// Sampling owns one RNG stream, so the calling goroutine draws every
// block. It pipelines over two blocks: while the helpers step block k, it
// folds block k−1 and draws block k+1 over it, then claims what is left
// of block k. Block k+1 is handed out only once block k is stepped.

const (
	// blockLen is how many requests one goroutine draws, steps and folds
	// at a time.
	blockLen = cancelEvery
	// sharedBlockLen is the block several goroutines step: long enough
	// that handing it to the helpers costs little next to stepping it.
	// EXPERIMENTS.md §Simulator request loop has the measurements behind
	// both lengths.
	sharedBlockLen = 4 * blockLen
)

// block is a run of len requests from request t0 on, all warm-up or all
// measured, grouped by server: reqs holds server 0's requests in draw
// order, then server 1's, and so on, and end[s] is where server s's group
// ends. A request's outcome sits at its index in reqs; pos[k] is the
// index of the block's k-th draw.
type block struct {
	t0, len int
	reqs    []workload.Request
	hops    []float64
	sources []string // nil unless tracing
	pos     []int32
	end     []int
	// taken[s] is set by the goroutine that claims server s's group.
	taken []atomic.Bool
	wg    sync.WaitGroup // the helpers' visits
}

func newBlock(size, n int, tracing bool) *block {
	b := &block{
		reqs:  make([]workload.Request, size),
		hops:  make([]float64, size),
		pos:   make([]int32, size),
		end:   make([]int, n),
		taken: make([]atomic.Bool, n),
	}
	if tracing {
		b.sources = make([]string, size)
	}
	return b
}

// draw fills b with up to len(b.reqs) requests from request t0 on and
// groups them by server. The first block is the short one, so the
// warm-up ends at a block edge: a short block mid-run would leave the
// helpers idle while the caller draws the next. It fails when ctx is
// done or a request cannot be simulated.
func (b *block) draw(ctx context.Context, src Source, cfg *Config, t0 int, sites []*workload.Site, scratch []workload.Request) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, total := len(b.end), cfg.Warmup+cfg.Requests
	b.t0, b.len = t0, min(len(b.reqs), total-t0)
	if t0 < cfg.Warmup {
		b.len = (cfg.Warmup-t0-1)%len(b.reqs) + 1
	}
	clear(b.end)
	for k := 0; k < b.len; k++ {
		req, ok := src.Next()
		if !ok || uint(req.Server) >= uint(n) || !inCatalog(sites, &req) {
			return drawErr(ok, req, t0+k, total, sites, n)
		}
		scratch[k] = req
		b.end[req.Server]++
	}
	start := 0
	for s, count := range b.end {
		b.end[s], start = start, start+count
		b.taken[s].Store(false)
	}
	for k, req := range scratch[:b.len] {
		i := b.end[req.Server]
		b.reqs[i], b.pos[k] = req, int32(i)
		b.end[req.Server]++
	}
	return nil
}

// step steps the server groups of b that no other goroutine has claimed.
// Helpers claim from the first server on and the caller from the last
// down, so a server tends to stay with one goroutine, and its cache in
// that goroutine's CPU cache, from block to block.
func (b *block) step(sh *shard, fromLast bool) {
	measured := b.t0 >= sh.cfg.Warmup
	n := len(b.end)
	for j := 0; j < n; j++ {
		s := j
		if fromLast {
			s = n - 1 - j
		}
		if !b.taken[s].CompareAndSwap(false, true) {
			continue
		}
		lo := 0
		if s > 0 {
			lo = b.end[s-1]
		}
		for i := lo; i < b.end[s]; i++ {
			hops, source := sh.step(b.reqs[i], measured)
			b.hops[i] = hops
			if b.sources != nil {
				b.sources[i] = source
			}
		}
	}
}

// run is the request loop behind every runner, on workers goroutines
// (the caller's included; at most one per server).
func run(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, src Source, workers int) (*Metrics, error) {
	if err := validateRun(sc, p, cfg); err != nil {
		return nil, err
	}
	n, sites := sc.Sys.N(), sc.Work.Sites
	workers = max(1, min(workers, n))
	size := blockLen
	if workers > 1 {
		size = sharedBlockLen
	}
	size = min(size, cfg.Warmup+cfg.Requests)
	scratch := make([]workload.Request, size)
	// The goroutines share the caches; each counts into its own shard.
	shards := make([]*shard, workers)
	shards[0] = newShard(sc, p, &cfg)
	f := newFold(&cfg, shards[0].m)

	// work carries one copy of a block per helper, so it never holds more.
	work := make(chan *block, workers-1)
	var helpers sync.WaitGroup
	helpers.Add(workers - 1)
	for w := 1; w < workers; w++ {
		sh := *shards[0]
		sh.m = newMetrics(n)
		shards[w] = &sh
		go func() {
			defer helpers.Done()
			for b := range work {
				b.step(&sh, false)
				b.wg.Done()
			}
		}()
	}
	defer func() {
		close(work)
		helpers.Wait()
	}()

	cur, next := newBlock(size, n, cfg.Tracer != nil), newBlock(size, n, cfg.Tracer != nil)
	if err := cur.draw(ctx, src, &cfg, 0, sites, scratch); err != nil {
		return nil, err
	}
	for {
		cur.wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			work <- cur
		}
		if workers == 1 {
			// Alone, the caller steps a block while its requests are
			// still in the CPU cache.
			cur.step(shards[0], true)
		}
		// next holds the block before cur, stepped (or none yet): fold it,
		// then draw the block after cur over it.
		f.add(next)
		last := cur.t0+cur.len == cfg.Warmup+cfg.Requests
		var err error
		if !last {
			err = next.draw(ctx, src, &cfg, cur.t0+cur.len, sites, scratch)
		}
		cur.step(shards[0], true)
		cur.wg.Wait()
		if err != nil {
			return nil, err
		}
		if last {
			f.add(cur)
			break
		}
		cur, next = next, cur
	}
	for _, sh := range shards[1:] {
		shards[0].m.addCounts(sh.m)
	}
	f.finish()
	return shards[0].m, nil
}
