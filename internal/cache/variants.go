package cache

import (
	"container/heap"

	"repro/internal/xrand"
)

// LFU is a byte-capacity least-frequently-used cache with LRU
// tie-breaking via an insertion counter. Included as an ablation baseline:
// LFU approximates the static optimum for IRM workloads and upper-bounds
// what any recency policy can achieve on a stationary Zipf stream.
type LFU struct {
	capacity int64
	used     int64
	items    map[Key]*lfuEntry
	pq       lfuHeap
	free     []*lfuEntry // recycled nodes: no steady-state allocation per miss
	tick     int64
	stats    Stats
}

var _ Cache = (*LFU)(nil)

type lfuEntry struct {
	key   Key
	size  int64
	freq  int64
	tick  int64 // last-touch tick for tie-breaking
	index int   // heap index, -1 when removed
}

// NewLFU returns an LFU cache bounded to capacity bytes.
func NewLFU(capacity int64) *LFU {
	return &LFU{capacity: capacity, items: make(map[Key]*lfuEntry)}
}

// Get implements Cache.
func (c *LFU) Get(k Key) bool {
	if e, ok := c.items[k]; ok {
		e.freq++
		c.tick++
		e.tick = c.tick
		heap.Fix(&c.pq, e.index)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Put implements Cache.
func (c *LFU) Put(k Key, size int64) {
	validateSize(size)
	if e, ok := c.items[k]; ok {
		c.used += size - e.size
		e.size = size
		c.evictUntilFits()
		return
	}
	if size > c.capacity {
		c.stats.Rejections++
		return
	}
	c.tick++
	var e *lfuEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
		*e = lfuEntry{key: k, size: size, freq: 1, tick: c.tick}
	} else {
		e = &lfuEntry{key: k, size: size, freq: 1, tick: c.tick}
	}
	c.items[k] = e
	heap.Push(&c.pq, e)
	c.used += size
	c.stats.Insertions++
	c.evictUntilFits()
}

func (c *LFU) evictUntilFits() {
	for c.used > c.capacity && c.pq.Len() > 0 {
		victim := heap.Pop(&c.pq).(*lfuEntry)
		delete(c.items, victim.key)
		c.used -= victim.size
		c.stats.Evictions++
		c.free = append(c.free, victim)
	}
}

// Contains implements Cache.
func (c *LFU) Contains(k Key) bool { _, ok := c.items[k]; return ok }

// Remove implements Cache.
func (c *LFU) Remove(k Key) {
	if e, ok := c.items[k]; ok {
		heap.Remove(&c.pq, e.index)
		delete(c.items, k)
		c.used -= e.size
		c.free = append(c.free, e)
	}
}

// Len implements Cache.
func (c *LFU) Len() int { return len(c.items) }

// Used implements Cache.
func (c *LFU) Used() int64 { return c.used }

// Capacity implements Cache.
func (c *LFU) Capacity() int64 { return c.capacity }

// Resize implements Cache.
func (c *LFU) Resize(capacity int64) {
	c.capacity = capacity
	c.evictUntilFits()
}

// Clear implements Cache.
func (c *LFU) Clear() {
	c.items = make(map[Key]*lfuEntry)
	c.pq = nil
	c.free = nil
	c.used = 0
	c.tick = 0
	c.stats = Stats{}
}

// Stats implements Cache.
func (c *LFU) Stats() Stats { return c.stats }

type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].tick < h[j].tick
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *lfuHeap) Push(x interface{}) {
	e := x.(*lfuEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *lfuHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	e.index = -1
	*h = old[:n-1]
	return e
}

// DelayedLRU is the delayed-LRU policy of Karlsson & Mahalingam [15]
// (cited in §2.2 and §6 of the paper): an object is admitted to the LRU
// cache only on its Delay-th request, which filters one-hit wonders.
// Request counts for uncached objects live in a bounded ghost table that
// itself evicts in LRU order.
type DelayedLRU struct {
	lru    *LRU
	delay  int
	ghosts map[Key]int
	order  []Key // FIFO approximation of ghost recency
	limit  int
	stats  Stats
}

var _ Cache = (*DelayedLRU)(nil)

// NewDelayedLRU returns a delayed-LRU cache bounded to capacity bytes that
// admits an object on its delay-th consecutive miss. delay <= 1 behaves
// exactly like plain LRU.
func NewDelayedLRU(capacity int64, delay int) *DelayedLRU {
	if delay < 1 {
		delay = 1
	}
	return &DelayedLRU{
		lru:    NewLRU(capacity),
		delay:  delay,
		ghosts: make(map[Key]int),
		limit:  4096,
	}
}

// Get implements Cache.
func (c *DelayedLRU) Get(k Key) bool {
	if c.lru.Get(k) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Put implements Cache. Admission is deferred until the object has been
// offered delay times.
func (c *DelayedLRU) Put(k Key, size int64) {
	validateSize(size)
	if c.lru.Contains(k) {
		c.lru.Put(k, size)
		return
	}
	n := c.ghosts[k] + 1
	if n < c.delay {
		c.ghosts[k] = n
		if n == 1 {
			c.order = append(c.order, k)
			c.trimGhosts()
		}
		c.stats.Rejections++
		return
	}
	delete(c.ghosts, k)
	c.lru.Put(k, size)
	// The inner LRU refuses an object larger than the cache.
	if c.lru.Contains(k) {
		c.stats.Insertions++
	} else {
		c.stats.Rejections++
	}
}

func (c *DelayedLRU) trimGhosts() {
	for len(c.ghosts) > c.limit && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.ghosts, victim)
	}
}

// Contains implements Cache.
func (c *DelayedLRU) Contains(k Key) bool { return c.lru.Contains(k) }

// Remove implements Cache.
func (c *DelayedLRU) Remove(k Key) { c.lru.Remove(k) }

// Len implements Cache.
func (c *DelayedLRU) Len() int { return c.lru.Len() }

// Used implements Cache.
func (c *DelayedLRU) Used() int64 { return c.lru.Used() }

// Capacity implements Cache.
func (c *DelayedLRU) Capacity() int64 { return c.lru.Capacity() }

// Resize implements Cache.
func (c *DelayedLRU) Resize(capacity int64) { c.lru.Resize(capacity) }

// Clear implements Cache.
func (c *DelayedLRU) Clear() {
	c.lru.Clear()
	c.ghosts = make(map[Key]int)
	c.order = nil
	c.stats = Stats{}
}

// Stats implements Cache. Eviction counts come from the inner LRU.
func (c *DelayedLRU) Stats() Stats {
	s := c.stats
	s.Evictions = c.lru.Stats().Evictions
	return s
}

// Random is a byte-capacity random-replacement cache: eviction picks a
// uniformly random resident object. Under the independent reference
// model its hit ratio matches FIFO's (Gelenbe 1973), which is what the
// analytical RANDOM/FIFO model in internal/lrumodel predicts; this
// variant grounds that claim in simulation. Victim selection draws from
// a deterministic xrand stream, so runs are reproducible for a fixed
// seed.
type Random struct {
	capacity int64
	used     int64
	index    map[Key]int // key -> position in entries
	entries  []randEntry
	rng      *xrand.Source
	stats    Stats
}

type randEntry struct {
	key  Key
	size int64
}

var _ Cache = (*Random)(nil)

// NewRandom returns a random-replacement cache bounded to capacity
// bytes, drawing victims from a stream seeded with seed.
func NewRandom(capacity int64, seed uint64) *Random {
	return &Random{
		capacity: capacity,
		index:    make(map[Key]int),
		rng:      xrand.New(seed),
	}
}

// Get implements Cache. Hits do not change replacement state.
func (c *Random) Get(k Key) bool {
	if _, ok := c.index[k]; ok {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Put implements Cache.
func (c *Random) Put(k Key, size int64) {
	validateSize(size)
	if i, ok := c.index[k]; ok {
		c.used += size - c.entries[i].size
		c.entries[i].size = size
		c.evictUntilFits()
		return
	}
	if size > c.capacity {
		c.stats.Rejections++
		return
	}
	c.index[k] = len(c.entries)
	c.entries = append(c.entries, randEntry{key: k, size: size})
	c.used += size
	c.stats.Insertions++
	c.evictUntilFits()
}

func (c *Random) evictUntilFits() {
	for c.used > c.capacity && len(c.entries) > 0 {
		c.removeAt(c.rng.Intn(len(c.entries)))
		c.stats.Evictions++
	}
}

// removeAt swap-removes entry i, keeping the index map consistent.
func (c *Random) removeAt(i int) {
	e := c.entries[i]
	last := len(c.entries) - 1
	c.entries[i] = c.entries[last]
	c.index[c.entries[i].key] = i
	c.entries = c.entries[:last]
	delete(c.index, e.key)
	c.used -= e.size
}

// Contains implements Cache.
func (c *Random) Contains(k Key) bool { _, ok := c.index[k]; return ok }

// Remove implements Cache.
func (c *Random) Remove(k Key) {
	if i, ok := c.index[k]; ok {
		c.removeAt(i)
	}
}

// Len implements Cache.
func (c *Random) Len() int { return len(c.entries) }

// Used implements Cache.
func (c *Random) Used() int64 { return c.used }

// Capacity implements Cache.
func (c *Random) Capacity() int64 { return c.capacity }

// Resize implements Cache.
func (c *Random) Resize(capacity int64) {
	c.capacity = capacity
	c.evictUntilFits()
}

// Clear implements Cache. The victim stream is not reset, so a cleared
// cache continues its deterministic sequence.
func (c *Random) Clear() {
	c.index = make(map[Key]int)
	c.entries = nil
	c.used = 0
	c.stats = Stats{}
}

// Stats implements Cache.
func (c *Random) Stats() Stats { return c.stats }

// Policy names a cache replacement policy for configuration surfaces.
type Policy string

// Supported replacement policies.
const (
	PolicyLRU        Policy = "lru"
	PolicyFIFO       Policy = "fifo"
	PolicyLFU        Policy = "lfu"
	PolicyDelayedLRU Policy = "delayed-lru"
	PolicyRandom     Policy = "random"
)

// New constructs a cache of the given policy and byte capacity. The
// delayed-LRU admission threshold is fixed at 2, the value [15] reports
// as near-optimal; the random policy's victim stream is seeded with the
// policy name so repeated runs are identical.
func New(p Policy, capacity int64) Cache {
	switch p {
	case PolicyFIFO:
		return NewFIFO(capacity)
	case PolicyLFU:
		return NewLFU(capacity)
	case PolicyDelayedLRU:
		return NewDelayedLRU(capacity, 2)
	case PolicyRandom:
		return NewRandom(capacity, xrand.Mix(0, string(PolicyRandom)))
	default:
		return NewLRU(capacity)
	}
}
