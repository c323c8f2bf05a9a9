package cache

import "math"

// node is one cached object in an ordered cache's arena. Links are arena
// indices, so a node holds no pointer and the garbage collector never
// scans a cache. Index 0 is the list sentinel: its next is the next
// eviction victim, its prev the most recently touched/inserted entry.
// A freed node is chained to the next free one through next.
type node struct {
	key        Key
	size       int64
	prev, next uint32
}

// ordered is the byte-capacity cache core shared by the recency- and
// insertion-ordered policies: an arena of nodes strung on one intrusive
// list in eviction order, found through an open-addressed table. LRU and
// FIFO differ only in promote — whether touching an entry moves it to
// the back of the list.
//
// A table slot holds tag<<32 | node index, 0 when empty, where tag is the
// key's 32-bit hash and the slot an entry wants (its home) is the tag's
// top bits. Probing is linear and compares the tag before it touches
// the node. Deletion shifts the rest of the probe run back over the
// hole rather than leaving a tombstone, so the evict-per-miss churn of
// a full cache never lengthens probes or forces a rehash; the homes that
// decision needs come from the tags, not from the nodes. The table
// doubles to keep its load at or below ½.
type ordered struct {
	capacity int64
	used     int64
	nodes    []node
	free     uint32 // head of the freed-node chain, 0 when empty
	n        int    // resident entries
	table    []uint64
	shift    uint // home slot = tag >> shift
	promote  bool
	stats    Stats
}

// minTableBits sizes the table of a new or cleared cache: 8 slots.
const minTableBits = 3

func newOrdered(capacity int64, promote bool) ordered {
	return ordered{
		capacity: capacity,
		nodes:    make([]node, 1),
		table:    make([]uint64, 1<<minTableBits),
		shift:    32 - minTableBits,
		promote:  promote,
	}
}

// hashKey mixes both words of k into a tag. Site is multiplied through
// all 64 bits before Object is added, the high half is folded down —
// the simulator keeps the catalog generation in Object's bits ≥ 32 —
// and a second multiplication carries every bit into the top 32.
func hashKey(k Key) uint32 {
	h := uint64(k.Site)*0xD6E8FEB86659FD93 + uint64(k.Object)
	h ^= h >> 32
	return uint32((h * 0x9E3779B97F4A7C15) >> 32)
}

// find returns the node holding k and its table slot, or node 0 and the
// empty slot that ended the probe.
func (c *ordered) find(k Key) (slot, idx uint32) {
	tag := hashKey(k)
	mask := uint32(len(c.table) - 1)
	for slot = tag >> c.shift; ; slot = (slot + 1) & mask {
		e := c.table[slot]
		if e == 0 {
			return slot, 0
		}
		if uint32(e>>32) == tag && c.nodes[uint32(e)].key == k {
			return slot, uint32(e)
		}
	}
}

// unindex empties slot and shifts the entries of its probe run that may
// move towards their home back over the hole.
func (c *ordered) unindex(slot uint32) {
	mask := uint32(len(c.table) - 1)
	for next := (slot + 1) & mask; ; next = (next + 1) & mask {
		e := c.table[next]
		if e == 0 {
			break
		}
		// e may fill the hole iff the hole lies between its home and
		// where it sits now, distances taken round the table.
		if home := uint32(e>>32) >> c.shift; (next-home)&mask >= (next-slot)&mask {
			c.table[slot] = e
			slot = next
		}
	}
	c.table[slot] = 0
}

// grow doubles the table and re-enters every resident node.
func (c *ordered) grow() {
	c.table = make([]uint64, 2*len(c.table))
	c.shift--
	mask := uint32(len(c.table) - 1)
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		tag := hashKey(c.nodes[i].key)
		slot := tag >> c.shift
		for c.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		c.table[slot] = uint64(tag)<<32 | uint64(i)
	}
}

func (c *ordered) unlink(i uint32) {
	n := &c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

func (c *ordered) pushBack(i uint32) {
	last := c.nodes[0].prev
	c.nodes[i].prev, c.nodes[i].next = last, 0
	c.nodes[last].next = i
	c.nodes[0].prev = i
}

func (c *ordered) touch(i uint32) {
	if c.promote && c.nodes[0].prev != i {
		c.unlink(i)
		c.pushBack(i)
	}
}

// drop removes resident node i, found at slot, and recycles it.
func (c *ordered) drop(slot, i uint32) {
	c.unlink(i)
	c.unindex(slot)
	c.used -= c.nodes[i].size
	c.nodes[i].next = c.free
	c.free = i
	c.n--
}

// Get implements Cache.
func (c *ordered) Get(k Key) bool {
	if _, i := c.find(k); i != 0 {
		c.touch(i)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Put implements Cache.
func (c *ordered) Put(k Key, size int64) {
	validateSize(size)
	slot, i := c.find(k)
	if i != 0 {
		c.used += size - c.nodes[i].size
		c.nodes[i].size = size
		c.touch(i)
		c.evictUntilFits()
		return
	}
	if size > c.capacity {
		c.stats.Rejections++
		return
	}
	if i = c.free; i != 0 {
		c.free = c.nodes[i].next
	} else {
		// Links are uint32: refuse the node whose index would wrap.
		if uint64(len(c.nodes)) > math.MaxUint32 {
			panic("cache: more than 2^32-1 entries in one cache")
		}
		i = uint32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	}
	c.nodes[i].key, c.nodes[i].size = k, size
	c.table[slot] = uint64(hashKey(k))<<32 | uint64(i)
	c.pushBack(i)
	c.n++
	c.used += size
	c.stats.Insertions++
	if 2*c.n > len(c.table) && uint64(len(c.table)) < 1<<32 {
		c.grow()
	}
	c.evictUntilFits()
}

func (c *ordered) evictUntilFits() {
	for c.used > c.capacity {
		victim := c.nodes[0].next
		if victim == 0 {
			return
		}
		slot, _ := c.find(c.nodes[victim].key)
		c.drop(slot, victim)
		c.stats.Evictions++
	}
}

// Contains implements Cache.
func (c *ordered) Contains(k Key) bool {
	_, i := c.find(k)
	return i != 0
}

// Remove implements Cache.
func (c *ordered) Remove(k Key) {
	if slot, i := c.find(k); i != 0 {
		c.drop(slot, i)
	}
}

// Len implements Cache.
func (c *ordered) Len() int { return c.n }

// Used implements Cache.
func (c *ordered) Used() int64 { return c.used }

// Capacity implements Cache.
func (c *ordered) Capacity() int64 { return c.capacity }

// Resize implements Cache.
func (c *ordered) Resize(capacity int64) {
	c.capacity = capacity
	c.evictUntilFits()
}

// Clear implements Cache.
func (c *ordered) Clear() { *c = newOrdered(c.capacity, c.promote) }

// Stats implements Cache.
func (c *ordered) Stats() Stats { return c.stats }

// victimOrder returns the cached keys from next-evicted to most recently
// touched/inserted.
func (c *ordered) victimOrder() []Key {
	out := make([]Key, 0, c.n)
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].key)
	}
	return out
}

// LRU is a byte-capacity least-recently-used cache: the replacement policy
// the paper models analytically (§3.2, Figure 1) and simulates (§5).
// A Get moves the object to the most-recent position; evictions take the
// least recently used object first.
type LRU struct{ ordered }

var _ Cache = (*LRU)(nil)

// NewLRU returns an LRU cache bounded to capacity bytes. A zero or
// negative capacity yields a cache on which every Get misses and every
// Put is rejected, which is exactly the pure-replication configuration.
func NewLRU(capacity int64) *LRU { return &LRU{newOrdered(capacity, true)} }

// VictimOrder returns the cached keys from next-evicted to most recently
// used. It exposes the LRU stack of Figure 1 for tests and for the model
// validation tooling; the slice is a copy.
func (c *LRU) VictimOrder() []Key { return c.victimOrder() }

// FIFO is a byte-capacity first-in-first-out cache: eviction order is
// insertion order and hits do not refresh position. Included as an
// ablation baseline against LRU.
type FIFO struct{ ordered }

var _ Cache = (*FIFO)(nil)

// NewFIFO returns a FIFO cache bounded to capacity bytes.
func NewFIFO(capacity int64) *FIFO { return &FIFO{newOrdered(capacity, false)} }
