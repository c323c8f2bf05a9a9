package cache

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// refOrdered is an intentionally simple O(n) reference for the ordered
// caches: a slice from next victim to most recent, a size map, and the
// counters. promote makes it an LRU, otherwise it is a FIFO.
type refOrdered struct {
	capacity int64
	promote  bool
	keys     []Key
	sizes    map[Key]int64
	stats    Stats
}

func newRefOrdered(capacity int64, promote bool) *refOrdered {
	return &refOrdered{capacity: capacity, promote: promote, sizes: make(map[Key]int64)}
}

func (r *refOrdered) touch(key Key) {
	if !r.promote {
		return
	}
	for i, kk := range r.keys {
		if kk == key {
			r.keys = append(append(r.keys[:i:i], r.keys[i+1:]...), key)
			return
		}
	}
}

func (r *refOrdered) get(key Key) bool {
	if _, ok := r.sizes[key]; !ok {
		r.stats.Misses++
		return false
	}
	r.touch(key)
	r.stats.Hits++
	return true
}

func (r *refOrdered) put(key Key, size int64) {
	if _, ok := r.sizes[key]; ok {
		r.sizes[key] = size
		r.touch(key)
	} else {
		if size > r.capacity {
			r.stats.Rejections++
			return
		}
		r.keys = append(r.keys, key)
		r.sizes[key] = size
		r.stats.Insertions++
	}
	r.evict()
}

func (r *refOrdered) evict() {
	for r.used() > r.capacity && len(r.keys) > 0 {
		delete(r.sizes, r.keys[0])
		r.keys = r.keys[1:]
		r.stats.Evictions++
	}
}

func (r *refOrdered) remove(key Key) {
	for i, kk := range r.keys {
		if kk == key {
			r.keys = append(r.keys[:i:i], r.keys[i+1:]...)
			delete(r.sizes, key)
			return
		}
	}
}

func (r *refOrdered) resize(capacity int64) {
	r.capacity = capacity
	r.evict()
}

func (r *refOrdered) clear() {
	*r = *newRefOrdered(r.capacity, r.promote)
}

func (r *refOrdered) used() int64 {
	var total int64
	for _, s := range r.sizes {
		total += s
	}
	return total
}

// opSites are the site ids of the differential key space: dense ones,
// negative ones and the extremes of int.
var opSites = [8]int{0, 1, 7, 39, -1, -5, math.MaxInt, math.MinInt}

// opKey decodes two bytes into a key: 8 sites × 3 catalog generations
// folded into the object's bits ≥ 32, exactly as sim.step does × 64
// objects. No two decoded keys may alias.
func opKey(a, b byte) Key {
	return Key{Site: opSites[a&7], Object: int(b&63) + int(a>>3)%3<<32}
}

// checkIndex verifies the open-addressed table against the arena: every
// slot names a node whose key hashes to the slot's tag, nothing sits
// beyond a hole on the way from its home, and the load stays ≤ ½.
func (c *ordered) checkIndex(t *testing.T) {
	t.Helper()
	mask := uint32(len(c.table) - 1)
	live := 0
	for s, e := range c.table {
		if e == 0 {
			continue
		}
		live++
		tag, i := uint32(e>>32), uint32(e)
		if i == 0 || int(i) >= len(c.nodes) || hashKey(c.nodes[i].key) != tag {
			t.Fatalf("slot %d: entry %#x does not match node %d", s, e, i)
		}
		for p := tag >> c.shift; p != uint32(s); p = (p + 1) & mask {
			if c.table[p] == 0 {
				t.Fatalf("slot %d: hole at %d between home %d and entry", s, p, tag>>c.shift)
			}
		}
	}
	if live != c.n || 2*c.n > len(c.table) {
		t.Fatalf("table holds %d entries, cache %d, in %d slots", live, c.n, len(c.table))
	}
}

// opsResult is what one differential run saw of the table: its largest
// size, and how many Remove calls hit the head of a probe run, the
// inside of one, and a run that wraps round the end of the table.
type opsResult struct {
	maxTable           int
	head, inside, wrap int
}

// noteRemoval classifies the slot k occupies in c, if resident.
func (res *opsResult) noteRemoval(c *ordered, k Key) {
	slot, i := c.find(k)
	if i == 0 {
		return
	}
	mask := uint32(len(c.table) - 1)
	before := c.table[(slot-1)&mask] != 0
	after := c.table[(slot+1)&mask] != 0
	if after && !before {
		res.head++
	}
	if after && before {
		res.inside++
	}
	// The run wraps if it is occupied from slot through the last slot
	// and on into slot 0.
	wraps := c.table[0] != 0
	for s := slot; wraps && s <= mask; s++ {
		wraps = c.table[s] != 0
	}
	if wraps {
		res.wrap++
	}
}

// runOps decodes data into cache operations and applies each to an
// ordered cache and to the reference, comparing the observable state
// after every step. The first byte sets the capacity; then each
// operation is an opcode byte and up to three argument bytes.
func runOps(t *testing.T, data []byte, promote bool) opsResult {
	t.Helper()
	var res opsResult
	if len(data) == 0 {
		return res
	}
	capacity := int64(data[0]) * 32
	c := newOrdered(capacity, promote)
	ref := newRefOrdered(capacity, promote)
	arg := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	size := func(b byte) int64 {
		if b >= 250 {
			return c.capacity + 1 + int64(b-250) // oversized
		}
		return 1 + int64(b)
	}
	for pos, step := 1, 0; pos < len(data); step++ {
		op := data[pos]
		key := opKey(arg(pos+1), arg(pos+2))
		what := ""
		switch {
		case op < 96: // the simulator's pattern: Get, Put on a miss
			what = "get+put"
			got, want := c.Get(key), ref.get(key)
			if got != want {
				t.Fatalf("step %d: Get(%v) = %v, reference %v", step, key, got, want)
			}
			if !got {
				c.Put(key, size(arg(pos+3)))
				ref.put(key, size(arg(pos+3)))
			}
			pos += 4
		case op < 160: // new key, existing key with a new size, oversized
			what = "put"
			c.Put(key, size(arg(pos+3)))
			ref.put(key, size(arg(pos+3)))
			pos += 4
		case op < 200:
			what = "get"
			if got, want := c.Get(key), ref.get(key); got != want {
				t.Fatalf("step %d: Get(%v) = %v, reference %v", step, key, got, want)
			}
			pos += 3
		case op < 232:
			what = "remove"
			res.noteRemoval(&c, key)
			c.Remove(key)
			ref.remove(key)
			pos += 3
		case op < 250: // down to 0 and back up
			what = "resize"
			c.Resize(int64(arg(pos+1)) * 32)
			ref.resize(int64(arg(pos+1)) * 32)
			pos += 2
		case op < 254:
			what = "contains"
			_, want := ref.sizes[key]
			if got := c.Contains(key); got != want {
				t.Fatalf("step %d: Contains(%v) = %v, reference %v", step, key, got, want)
			}
			pos += 3
		default:
			what = "clear"
			c.Clear()
			ref.clear()
			pos++
		}
		if c.Used() != ref.used() || c.Len() != len(ref.keys) || c.Capacity() != ref.capacity {
			t.Fatalf("step %d (%s %v): used %d len %d capacity %d, reference %d %d %d",
				step, what, key, c.Used(), c.Len(), c.Capacity(), ref.used(), len(ref.keys), ref.capacity)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("step %d (%s %v): stats %+v, reference %+v", step, what, key, c.Stats(), ref.stats)
		}
		if order := c.victimOrder(); !reflect.DeepEqual(order, append([]Key{}, ref.keys...)) {
			t.Fatalf("step %d (%s %v): victim order %v, reference %v", step, what, key, order, ref.keys)
		}
		c.checkIndex(t)
		if len(c.table) > res.maxTable {
			res.maxTable = len(c.table)
		}
	}
	return res
}

// randomOps is a seeded operation stream for runOps over a cache of
// capacity 32·capByte.
func randomOps(seed uint64, capByte byte, n int) []byte {
	r := xrand.New(seed)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	data[0] = capByte
	return data
}

// TestLRUMatchesReferenceModel checks the arena LRU — and, through the
// same harness, the FIFO that shares its core — against the naive
// slice-based reference, operation by operation: random Get / Put (new,
// existing with a new size, oversized) / Remove / Resize / Clear over
// several sites, negative and extreme site ids and objects carrying
// generation bits, comparing hit result, Used, Len, Stats and the whole
// victim order after every step.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, promote := range []bool{true, false} {
		var sum opsResult
		for seed := uint64(1); seed <= 12; seed++ {
			// Capacities from a handful of objects to all 1 536 keys.
			res := runOps(t, randomOps(seed, byte(seed*seed*2-1), 12000), promote)
			if res.maxTable > sum.maxTable {
				sum.maxTable = res.maxTable
			}
			sum.head += res.head
			sum.inside += res.inside
			sum.wrap += res.wrap
		}
		// The input must have exercised what the index can get wrong:
		// at least three doublings of the 8-slot table, and deletions at
		// the head of a probe run, inside one, and in one that wraps
		// round the end of the table.
		if sum.maxTable < 8<<3 || sum.head == 0 || sum.inside == 0 || sum.wrap == 0 {
			t.Errorf("promote=%v: weak coverage: %+v", promote, sum)
		}
	}
}

// TestOrderedKeysNeverAlias inserts every key of the differential key
// space — equal objects under different generations and sites — and
// expects each to be its own entry.
func TestOrderedKeysNeverAlias(t *testing.T) {
	c := NewLRU(1 << 20)
	seen := make(map[Key]bool)
	for a := 0; a < 24; a++ {
		for b := 0; b < 64; b++ {
			key := opKey(byte(a), byte(b))
			if seen[key] {
				t.Fatalf("opKey(%d, %d) repeats %v", a, b, key)
			}
			seen[key] = true
			if c.Get(key) {
				t.Fatalf("%v hit before it was put", key)
			}
			c.Put(key, 1)
		}
	}
	if c.Len() != len(seen) || c.Used() != int64(len(seen)) {
		t.Fatalf("%d keys put, %d resident, %d bytes", len(seen), c.Len(), c.Used())
	}
	for key := range seen {
		if !c.Contains(key) {
			t.Fatalf("%v lost", key)
		}
	}
}

// TestOrderedEqualTags puts two keys whose 32-bit tags collide: the
// probe must tell them apart by the node's key.
func TestOrderedEqualTags(t *testing.T) {
	// Dense keys spread too evenly to collide; random ones do within
	// about 2^16 draws.
	r := xrand.New(5)
	byTag := make(map[uint32]Key)
	var a, b Key
	for {
		key := k(r.Intn(1<<20), r.Intn(1<<40))
		if prev, ok := byTag[hashKey(key)]; ok && prev != key {
			a, b = prev, key
			break
		}
		byTag[hashKey(key)] = key
	}
	c := NewLRU(100)
	c.Put(a, 10)
	if c.Contains(b) || c.Get(b) {
		t.Fatalf("%v found through %v's tag", b, a)
	}
	c.Put(b, 20)
	if c.Len() != 2 || c.Used() != 30 {
		t.Fatalf("len %d used %d after two colliding puts", c.Len(), c.Used())
	}
	c.Remove(a)
	if c.Contains(a) || !c.Contains(b) || c.Used() != 20 {
		t.Fatalf("removing %v disturbed %v", a, b)
	}
	c.checkIndex(t)
}

// TestHashSpreadsSimulatorKeys bounds the mean probe distance at load ½
// over the keys the simulator produces: dense sites × dense ranks × a
// few generations.
func TestHashSpreadsSimulatorKeys(t *testing.T) {
	c := NewLRU(1 << 30)
	for site := 0; site < 40; site++ {
		for obj := 1; obj <= 400; obj++ {
			c.Put(Key{Site: site, Object: obj + (obj%3)<<32}, 1)
		}
	}
	mask := uint32(len(c.table) - 1)
	var dist uint64
	for s, e := range c.table {
		if e != 0 {
			dist += uint64((uint32(s) - uint32(e>>32)>>c.shift) & mask)
		}
	}
	// Uniform hashing at load α probes (1+1/(1−α))/2 slots per hit: a
	// displacement of ½ at α = ½, less below it.
	if mean := float64(dist) / float64(c.n); mean > 1 {
		t.Fatalf("mean displacement %.2f slots over %d keys in %d slots", mean, c.n, len(c.table))
	}
}

// FuzzLRUOps feeds arbitrary operation bytes to the differential
// harness, as an LRU and as a FIFO.
func FuzzLRUOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 100, 1, 2, 3})                                // capacity 0: everything rejected
	f.Add([]byte{1, 100, 0, 1, 31, 100, 0, 1, 40, 100, 0, 1, 9})  // one key, growing past capacity and back
	f.Add([]byte{8, 100, 0, 1, 255, 100, 8, 1, 249, 240, 0, 255}) // oversized, resize to 0, clear
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, byte(16*seed), 400))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, data, true)
		runOps(t, data, false)
	})
}
