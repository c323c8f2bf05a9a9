// Package cache implements the per-server web caches of the CDN model.
//
// The paper's hybrid scheme runs "a simple LRU caching scheme" (§1, §3.2)
// in the storage space each CDN server does not spend on replicas. Objects
// have heterogeneous byte sizes, so the caches here are byte-capacity
// bounded, not entry-count bounded: an insertion evicts from the
// replacement end until the new object fits.
//
// Besides LRU the package provides FIFO, LFU and delayed-LRU (the variant
// of Karlsson & Mahalingam [15] that only admits an object after it has
// been seen d times) for the ablation experiments that go beyond the
// paper.
package cache

import "fmt"

// Key identifies a web object: object Index within site Site. Sites and
// objects are dense integer ids assigned by the workload generator.
type Key struct {
	Site   int
	Object int
}

// Stats counts cache events since construction or the last Clear.
type Stats struct {
	Hits       int64
	Misses     int64
	Insertions int64
	Evictions  int64
	Rejections int64 // Put calls dropped (object larger than capacity, or admission refused)
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a byte-capacity bounded object cache. Implementations are not
// safe for concurrent use; the simulator shards caches per server.
type Cache interface {
	// Get looks up k, updating replacement state, and reports a hit.
	Get(k Key) bool
	// Put inserts k with the given size after a miss, evicting as
	// needed. Inserting an existing key refreshes its replacement
	// state and updates its size.
	Put(k Key, size int64)
	// Contains reports whether k is cached without touching
	// replacement state.
	Contains(k Key) bool
	// Remove drops k if present (used for invalidation experiments).
	Remove(k Key)
	// Len returns the number of cached objects.
	Len() int
	// Used returns the cached bytes.
	Used() int64
	// Capacity returns the byte capacity.
	Capacity() int64
	// Resize changes the capacity, evicting if it shrinks below Used.
	Resize(capacity int64)
	// Clear drops all entries and resets statistics.
	Clear()
	// Stats returns the event counters.
	Stats() Stats
}

func validateSize(size int64) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Put with non-positive size %d", size))
	}
}
