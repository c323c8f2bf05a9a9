package sim

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The parallel runner exploits the structural independence of the §5
// simulation: per-server LRU caches and per-server counters depend only
// on the subsequence of requests destined to that server, so the request
// stream can be partitioned by destination server and simulated on
// several goroutines with no synchronization on the hot path. Request
// sampling itself consumes a single sequential RNG stream and therefore
// stays on one goroutine (the producer), pipelined against the others;
// metrics are reassembled by global request index afterwards, which makes
// RunParallel bit-identical to Run — including the order of
// ResponseTimesMs, the float summation order behind MeanRTMs/MeanHops,
// and the JSONL trace — for equal seeds.
//
// The producer is one of the Parallelism goroutines, not one on top of
// them, and the servers are cut into more shards than there are
// goroutines: a shard's batches are simulated in order by whichever
// goroutine is free (handoff), the producer included once enough batches
// wait. So no goroutine is tied to a shard that happens to be idle, the
// producer samples only a batch or two ahead of the simulation, and the
// run advances at one even rate whether sampling or stepping is the
// larger share of the work.

const (
	// parallelBatch is the hand-off granularity: large enough to amortize
	// the hand-off's lock over hundreds of requests, small enough that the
	// batches in flight stay in cache between sampling and stepping.
	parallelBatch = 512
	// shardsPerWorker is how many shards the servers are cut into per
	// goroutine: enough that a free goroutine finds a shard nobody holds.
	shardsPerWorker = 2
	// backlogPerWorker is how many batches per goroutine may wait before
	// the producer stops sampling and simulates one itself: enough that
	// the workers are not starved while it does.
	backlogPerWorker = 2
)

// shardItem carries one sampled request plus its global index t, from
// which the measured flag and the merge position derive.
type shardItem struct {
	t   int
	req workload.Request
}

// batch is a run of one shard's requests, linked into that shard's queue
// or into the free list.
type batch struct {
	items []shardItem
	next  *batch
}

// handoff is the work list between the producer and whoever simulates: a
// FIFO of batches per shard. A shard is taken by one goroutine at a time
// and gives up one batch per take, so its requests are stepped in the
// order they were drawn, and the mutex orders one goroutine's writes to
// the shard before the next one's reads.
type handoff struct {
	mu   sync.Mutex
	cond *sync.Cond // a shard became takeable, the backlog shrank, or closed
	q    []shardQueue
	next int    // where take starts looking, so shards take turns
	free *batch // drained batches, recycled so a run allocates at set-up only
	// backlog counts the batches waiting in q.
	backlog int
	// stalled: the producer is waiting in take for the backlog to shrink.
	stalled bool
	closed  bool
}

type shardQueue struct {
	head, tail *batch
	taken      bool
}

func newHandoff(shards int) *handoff {
	h := &handoff{q: make([]shardQueue, shards)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// put queues b, if any, behind shard x's earlier batches and returns an
// empty batch to fill next.
func (h *handoff) put(x int, b *batch) *batch {
	h.mu.Lock()
	queued := b != nil
	if queued {
		q := &h.q[x]
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail = b
		h.backlog++
	}
	b = h.free
	if b != nil {
		h.free, b.next = b.next, nil
	}
	h.mu.Unlock()
	if queued {
		h.cond.Signal()
	}
	if b == nil {
		b = &batch{items: make([]shardItem, 0, parallelBatch)}
	}
	return b
}

// close tells take that no batch will follow the queued ones.
func (h *handoff) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// take hands out the oldest batch of a shard nobody holds, and the shard
// with it until done, as long as more than limit batches are queued; with
// none to hand out it waits for one. It returns nil once the backlog is
// within limit or, closed, empty: a worker passes -1 and works until the
// end, the producer passes the backlog it tolerates.
func (h *handoff) take(limit int) (x int, b *batch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.backlog > limit {
		for i := range h.q {
			x = (h.next + i) % len(h.q)
			q := &h.q[x]
			if q.taken || q.head == nil {
				continue
			}
			b = q.head
			if q.head = b.next; q.head == nil {
				q.tail = nil
			}
			b.next = nil
			q.taken = true
			h.next = x + 1
			h.backlog--
			if h.stalled || h.closed && h.backlog == 0 {
				// The producer may go on, or the waiting workers home.
				h.cond.Broadcast()
			}
			return x, b
		}
		if h.closed && h.backlog == 0 {
			break
		}
		// Every queued batch belongs to a shard somebody holds.
		if limit >= 0 {
			h.stalled = true
		}
		h.cond.Wait()
		if limit >= 0 {
			h.stalled = false
		}
	}
	return 0, nil
}

// done releases shard x and recycles its drained batch.
func (h *handoff) done(x int, b *batch) {
	b.items = b.items[:0]
	h.mu.Lock()
	h.q[x].taken = false
	more := h.q[x].head != nil
	b.next, h.free = h.free, b
	h.mu.Unlock()
	if more {
		h.cond.Signal()
	}
}

// parallelRun is what the goroutines of one RunSourceParallel share.
// Slot k of out is measured request k's, written by the one goroutine
// that steps it, so the slices are shared without locks.
type parallelRun struct {
	cfg    *Config
	shards []*shard
	out    *outcomes
	h      *handoff
}

// work takes batches and simulates them until take has none for limit.
func (r *parallelRun) work(limit int) {
	cfg := r.cfg
	for {
		x, b := r.h.take(limit)
		if b == nil {
			return
		}
		sh := r.shards[x]
		for _, it := range b.items {
			measured := it.t >= cfg.Warmup
			hops, source := sh.step(it.req, measured)
			if measured {
				k := it.t - cfg.Warmup
				r.out.set(k, hops, source)
				if r.out.reqs != nil {
					r.out.reqs[k] = it.req
				}
			}
		}
		r.h.done(x, b)
	}
}

// RunParallel is Run executed on cfg.Parallelism goroutines (0 =
// runtime.GOMAXPROCS). The result is bit-identical to Run with the same
// seed; see the package comment above for why sharding is exact.
func RunParallel(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, r *xrand.Source) (*Metrics, error) {
	return RunSourceParallel(ctx, sc, p, cfg, streamSource{sc.Stream(r)})
}

// RunSourceParallel is RunSource executed on cfg.Parallelism goroutines.
// The source is drained sequentially by the calling goroutine, the
// producer (request sampling owns a single RNG stream), so any Source
// works unchanged. Cancelling ctx aborts the producer between batches;
// what was already queued is still simulated and the call returns
// ctx.Err().
func RunSourceParallel(ctx context.Context, sc *scenario.Scenario, p *core.Placement, cfg Config, src Source) (*Metrics, error) {
	if err := validateRun(sc, p, cfg); err != nil {
		return nil, err
	}
	n, sites := sc.Sys.N(), sc.Work.Sites
	workers := cfg.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return RunSource(ctx, sc, p, cfg, src)
	}

	m := &Metrics{
		PerServerHitRatio: make([]float64, n),
		PerServerHits:     make([]int64, n),
		PerServerLookups:  make([]int64, n),
	}
	f := newFold(&cfg, m)

	nshards := workers * shardsPerWorker
	if nshards > n {
		nshards = n
	}
	tracing := cfg.Tracer != nil
	run := &parallelRun{
		cfg:    &cfg,
		shards: make([]*shard, nshards),
		out:    newOutcomes(cfg.Requests, tracing, tracing),
		h:      newHandoff(nshards),
	}
	for x := range run.shards {
		x := x
		run.shards[x] = newShard(sc, p, &cfg, func(i int) bool { return i%nshards == x })
	}

	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run.work(-1)
		}()
	}

	// Producer: drain the source in order, routing each request to the
	// shard owning its destination server, and lend a hand with the
	// simulation whenever the others have fallen behind.
	var srcErr error
	maxBacklog := workers * backlogPerWorker
	buf := make([]*batch, nshards)
	for x := range buf {
		buf[x] = run.h.put(x, nil)
	}
	total := cfg.Warmup + cfg.Requests
	for t := 0; t < total; t++ {
		if t%cancelEvery == 0 && ctx.Err() != nil {
			srcErr = ctx.Err()
			break
		}
		req, ok := src.Next()
		if !ok || uint(req.Server) >= uint(n) || !inCatalog(sites, &req) {
			srcErr = drawErr(ok, req, t, total, sites, n)
			break
		}
		x := req.Server % nshards
		buf[x].items = append(buf[x].items, shardItem{t: t, req: req})
		if len(buf[x].items) == parallelBatch {
			buf[x] = run.h.put(x, buf[x])
			run.work(maxBacklog)
		}
	}
	for x, b := range buf {
		if len(b.items) > 0 {
			run.h.put(x, b)
		}
	}
	run.h.close()
	run.work(-1)
	wg.Wait()
	if srcErr != nil {
		return nil, srcErr
	}

	// Merge. Integer counters are order-independent sums over the
	// disjoint shards; the fold replays the rest in global request order.
	for _, sh := range run.shards {
		m.LocalReplica += sh.m.LocalReplica
		m.CacheHits += sh.m.CacheHits
		m.CacheMisses += sh.m.CacheMisses
		m.Bypass += sh.m.Bypass
		m.RemoteServer += sh.m.RemoteServer
		m.OriginFetch += sh.m.OriginFetch
		m.Perished += sh.m.Perished
		m.StaleReplica += sh.m.StaleReplica
		m.UnknownSite += sh.m.UnknownSite
		for i := 0; i < n; i++ {
			m.PerServerHits[i] += sh.m.PerServerHits[i]
			m.PerServerLookups[i] += sh.m.PerServerLookups[i]
		}
	}
	f.add(run.out, 0, cfg.Requests, 0)
	f.finish()
	return m, nil
}
