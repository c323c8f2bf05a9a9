package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("obs: Counter.Add(%d): counters only go up", delta))
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. bytes resident in a
// cache). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with atomic bucket counters,
// suitable for always-on latency measurement. Buckets follow the
// Prometheus convention: bucket i counts observations v <= bounds[i],
// plus an implicit +Inf overflow bucket. All methods are safe for
// concurrent use; Observe is a binary search plus three atomic adds.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. An empty bounds slice panics: a histogram with only the
// overflow bucket cannot estimate anything.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: NewHistogram with no bucket bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v <= %v",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// DefaultLatencyBuckets spans 50µs to 10s when observations are in
// milliseconds — wide enough for both the loopback HTTP cluster
// (sub-millisecond) and the simulator's 20 ms/hop model latencies.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous. start must be positive and factor > 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExponentialBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n bounds starting at start, each width apart.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic(fmt.Sprintf("obs: LinearBuckets(%v, %v, %d)", start, width, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v, i.e. the smallest bucket whose upper bound
	// admits v; len(bounds) = the +Inf overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the mean observation, or 0 before any observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// BucketCounts returns a snapshot of the per-bucket (non-cumulative)
// counts; the last entry is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket containing the target rank, the same
// estimate Prometheus's histogram_quantile computes. The first bucket
// interpolates from 0; observations landing in the +Inf overflow
// bucket clamp to the highest finite bound. Returns 0 before any
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.bounds {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(rank-cum)/n
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}
