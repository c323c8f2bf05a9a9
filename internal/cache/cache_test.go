package cache

import (
	"testing"

	"repro/internal/xrand"
)

func k(site, obj int) Key { return Key{Site: site, Object: obj} }

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(100)
	if c.Get(k(0, 1)) {
		t.Fatal("hit on empty cache")
	}
	c.Put(k(0, 1), 10)
	if !c.Get(k(0, 1)) {
		t.Fatal("miss after Put")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Insertions != 1 {
		t.Fatalf("stats %+v", s)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(30)
	c.Put(k(0, 1), 10)
	c.Put(k(0, 2), 10)
	c.Put(k(0, 3), 10)
	// Touch 1 so 2 becomes the LRU victim.
	if !c.Get(k(0, 1)) {
		t.Fatal("expected hit")
	}
	c.Put(k(0, 4), 10) // evicts 2
	if c.Contains(k(0, 2)) {
		t.Fatal("object 2 should have been evicted")
	}
	for _, key := range []Key{k(0, 1), k(0, 3), k(0, 4)} {
		if !c.Contains(key) {
			t.Fatalf("object %v missing", key)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}
}

func TestLRUVictimOrder(t *testing.T) {
	c := NewLRU(100)
	c.Put(k(0, 1), 10)
	c.Put(k(0, 2), 10)
	c.Put(k(0, 3), 10)
	c.Get(k(0, 1))
	got := c.VictimOrder()
	want := []Key{k(0, 2), k(0, 3), k(0, 1)}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestLRUByteCapacityMultiEviction(t *testing.T) {
	c := NewLRU(100)
	for i := 0; i < 10; i++ {
		c.Put(k(0, i), 10)
	}
	c.Put(k(1, 0), 55) // must evict 6 objects of size 10
	if c.Used() > c.Capacity() {
		t.Fatalf("used %d exceeds capacity", c.Used())
	}
	if c.Len() != 5 {
		t.Fatalf("len %d, want 5 (4 old + 1 new)", c.Len())
	}
	if !c.Contains(k(1, 0)) {
		t.Fatal("new large object missing")
	}
}

func TestLRUOversizedRejected(t *testing.T) {
	c := NewLRU(50)
	c.Put(k(0, 1), 60)
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("oversized object was admitted")
	}
	if c.Stats().Rejections != 1 {
		t.Fatalf("rejections %d, want 1", c.Stats().Rejections)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0)
	c.Put(k(0, 1), 1)
	if c.Get(k(0, 1)) {
		t.Fatal("zero-capacity cache produced a hit")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an object")
	}
}

func TestLRUPutUpdatesSize(t *testing.T) {
	c := NewLRU(100)
	c.Put(k(0, 1), 10)
	c.Put(k(0, 1), 30)
	if c.Used() != 30 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d after size update", c.Used(), c.Len())
	}
	// Growing an existing entry beyond capacity evicts others first.
	c.Put(k(0, 2), 10)
	c.Put(k(0, 1), 95)
	if c.Used() > 100 {
		t.Fatalf("used %d exceeds capacity after in-place growth", c.Used())
	}
	if c.Contains(k(0, 2)) {
		t.Fatal("older entry survived in-place growth that required eviction")
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU(100)
	c.Put(k(0, 1), 10)
	c.Remove(k(0, 1))
	if c.Contains(k(0, 1)) || c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Remove did not remove")
	}
	c.Remove(k(9, 9)) // no-op must not panic
}

func TestLRUResize(t *testing.T) {
	c := NewLRU(100)
	for i := 0; i < 10; i++ {
		c.Put(k(0, i), 10)
	}
	c.Resize(35)
	if c.Used() > 35 {
		t.Fatalf("used %d after shrink to 35", c.Used())
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
	// The survivors must be the most recently inserted ones.
	for i := 7; i < 10; i++ {
		if !c.Contains(k(0, i)) {
			t.Fatalf("object %d should have survived shrink", i)
		}
	}
}

func TestLRUClear(t *testing.T) {
	c := NewLRU(100)
	c.Put(k(0, 1), 10)
	c.Get(k(0, 1))
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("Clear left data")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("Clear left stats %+v", s)
	}
}

func TestPutPanicsOnBadSize(t *testing.T) {
	for _, size := range []int64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", size)
				}
			}()
			NewLRU(10).Put(k(0, 0), size)
		}()
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	c := NewFIFO(30)
	c.Put(k(0, 1), 10)
	c.Put(k(0, 2), 10)
	c.Put(k(0, 3), 10)
	c.Get(k(0, 1)) // FIFO: does not protect object 1
	c.Put(k(0, 4), 10)
	if c.Contains(k(0, 1)) {
		t.Fatal("FIFO kept the oldest object after a hit")
	}
	if !c.Contains(k(0, 2)) {
		t.Fatal("FIFO evicted the wrong object")
	}
}

func TestLFUKeepsHotObjects(t *testing.T) {
	c := NewLFU(30)
	c.Put(k(0, 1), 10)
	c.Put(k(0, 2), 10)
	c.Put(k(0, 3), 10)
	for i := 0; i < 5; i++ {
		c.Get(k(0, 1))
		c.Get(k(0, 2))
	}
	c.Put(k(0, 4), 10) // must evict 3: frequency 1, lowest
	if c.Contains(k(0, 3)) {
		t.Fatal("LFU evicted a hot object instead of the cold one")
	}
	if !c.Contains(k(0, 1)) || !c.Contains(k(0, 2)) {
		t.Fatal("LFU lost hot objects")
	}
}

func TestLFURemoveAndResize(t *testing.T) {
	c := NewLFU(100)
	for i := 0; i < 10; i++ {
		c.Put(k(0, i), 10)
	}
	c.Remove(k(0, 5))
	if c.Contains(k(0, 5)) || c.Used() != 90 {
		t.Fatal("LFU Remove failed")
	}
	c.Resize(20)
	if c.Used() > 20 {
		t.Fatalf("LFU used %d after shrink", c.Used())
	}
}

func TestDelayedLRUAdmitsOnSecondOffer(t *testing.T) {
	c := NewDelayedLRU(100, 2)
	c.Put(k(0, 1), 10)
	if c.Contains(k(0, 1)) {
		t.Fatal("delayed-LRU admitted on first offer")
	}
	c.Put(k(0, 1), 10)
	if !c.Contains(k(0, 1)) {
		t.Fatal("delayed-LRU did not admit on second offer")
	}
}

func TestDelayedLRUDelayOneIsLRU(t *testing.T) {
	c := NewDelayedLRU(100, 1)
	c.Put(k(0, 1), 10)
	if !c.Contains(k(0, 1)) {
		t.Fatal("delay=1 should admit immediately")
	}
	// delay < 1 clamps to 1
	c2 := NewDelayedLRU(100, 0)
	c2.Put(k(0, 2), 10)
	if !c2.Contains(k(0, 2)) {
		t.Fatal("delay=0 should clamp to immediate admission")
	}
	// Counter for counter the same cache as a plain LRU, on a stream in
	// which one object in eight is larger than the cache.
	d, lru := NewDelayedLRU(500, 1), NewLRU(500)
	r := xrand.New(11)
	for step := 0; step < 5000; step++ {
		key, size := k(r.Intn(3), r.Intn(60)), int64(1+r.Intn(80))
		if r.Intn(8) == 0 {
			size += 500
		}
		if got, want := d.Get(key), lru.Get(key); got != want {
			t.Fatalf("step %d: delay=1 hit %v, LRU %v", step, got, want)
		} else if !got {
			d.Put(key, size)
			lru.Put(key, size)
		}
		if d.Stats() != lru.Stats() || d.Used() != lru.Used() || d.Len() != lru.Len() {
			t.Fatalf("step %d: delay=1 %+v used %d len %d, LRU %+v used %d len %d",
				step, d.Stats(), d.Used(), d.Len(), lru.Stats(), lru.Used(), lru.Len())
		}
	}
	if s := lru.Stats(); s.Rejections == 0 || s.Evictions == 0 {
		t.Fatalf("stream rejected %d and evicted %d objects: too tame", s.Rejections, s.Evictions)
	}
}

// An object larger than the cache is never admitted, whatever the
// delay: each offer of it is a rejection, not an insertion.
func TestDelayedLRUOversizedIsRejection(t *testing.T) {
	for _, delay := range []int{1, 2} {
		c := NewDelayedLRU(10, delay)
		for offer := 1; offer <= 3; offer++ {
			c.Put(k(0, 1), 11)
			if s := c.Stats(); s.Insertions != 0 || s.Rejections != int64(offer) || c.Len() != 0 {
				t.Fatalf("delay %d, offer %d: %+v with %d resident, want %d rejections and nothing else",
					delay, offer, s, c.Len(), offer)
			}
		}
		c.Put(k(0, 2), 10)
		c.Put(k(0, 2), 10)
		if s := c.Stats(); s.Insertions != 1 || !c.Contains(k(0, 2)) {
			t.Fatalf("delay %d: an object that fits was not admitted: %+v", delay, s)
		}
	}
}

func TestDelayedLRUFiltersOneHitWonders(t *testing.T) {
	// Stream: hot object requested often, cold objects once each. The
	// delayed cache must end up holding the hot object and none of the
	// cold ones.
	c := NewDelayedLRU(20, 2)
	hot := k(0, 0)
	for i := 1; i <= 50; i++ {
		if !c.Get(hot) {
			c.Put(hot, 10)
		}
		cold := k(1, i)
		if !c.Get(cold) {
			c.Put(cold, 10)
		}
	}
	if !c.Contains(hot) {
		t.Fatal("hot object missing from delayed-LRU")
	}
	for i := 1; i <= 50; i++ {
		if c.Contains(k(1, i)) {
			t.Fatalf("one-hit wonder %d was admitted", i)
		}
	}
}

func TestNewFactory(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{PolicyLRU, "*cache.LRU"},
		{PolicyFIFO, "*cache.FIFO"},
		{PolicyLFU, "*cache.LFU"},
		{PolicyDelayedLRU, "*cache.DelayedLRU"},
		{Policy("unknown"), "*cache.LRU"},
	} {
		c := New(tc.p, 10)
		if got := typeName(c); got != tc.want {
			t.Errorf("New(%q) = %s, want %s", tc.p, got, tc.want)
		}
	}
}

func typeName(c Cache) string {
	switch c.(type) {
	case *LRU:
		return "*cache.LRU"
	case *FIFO:
		return "*cache.FIFO"
	case *LFU:
		return "*cache.LFU"
	case *DelayedLRU:
		return "*cache.DelayedLRU"
	}
	return "?"
}

// TestInvariantsUnderRandomWorkload drives every policy with a random
// Get/Put/Remove/Resize stream and checks the capacity and accounting
// invariants that must hold for any correct cache.
func TestInvariantsUnderRandomWorkload(t *testing.T) {
	policies := map[string]func() Cache{
		"lru":         func() Cache { return NewLRU(500) },
		"fifo":        func() Cache { return NewFIFO(500) },
		"lfu":         func() Cache { return NewLFU(500) },
		"delayed-lru": func() Cache { return NewDelayedLRU(500, 2) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			c := mk()
			r := xrand.New(77)
			for step := 0; step < 20000; step++ {
				key := k(r.Intn(3), r.Intn(60))
				switch r.Intn(10) {
				case 0:
					c.Remove(key)
				case 1:
					c.Resize(int64(100 + r.Intn(900)))
				default:
					if !c.Get(key) {
						c.Put(key, int64(1+r.Intn(50)))
					}
				}
				if c.Used() > c.Capacity() {
					t.Fatalf("step %d: used %d > capacity %d", step, c.Used(), c.Capacity())
				}
				if c.Used() < 0 {
					t.Fatalf("step %d: negative used %d", step, c.Used())
				}
				if c.Len() < 0 {
					t.Fatalf("step %d: negative len", step)
				}
			}
		})
	}
}

func BenchmarkLRUGetPut(b *testing.B) {
	c := NewLRU(1 << 20)
	r := xrand.New(1)
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = k(i%16, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[r.Intn(len(keys))]
		if !c.Get(key) {
			c.Put(key, 512)
		}
	}
}
