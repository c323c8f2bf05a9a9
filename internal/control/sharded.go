package control

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ShardedEstimator partitions the (edge, site) demand-key space across
// independent Estimator shards with a consistent-hash ring. It exists
// for the multi-process control plane (cdnd control): edge report
// batches land on per-shard locks instead of one global estimator
// mutex, the per-shard state is small enough to hand to a separate
// aggregator process later, and — because ownership is a consistent
// hash, not key mod S — growing the shard count moves only ~1/(S+1) of
// the keys, so EWMA history survives a resharding mostly intact.
//
// Every shard is a full-shape Estimator (N×M) that only ever sees the
// cells the ring assigns to it; aggregation sums the shard-local raw
// EWMA rate matrices (Estimator.RateMatrix) and normalizes globally,
// which is exactly the single-estimator Demand() by linearity of the
// per-cell EWMA. ShardedEstimator satisfies DemandSource, so the
// Controller reconciles against it unchanged.
type ShardedEstimator struct {
	n, m   int
	vnodes int
	// ring is the sorted vnode hash ring; ringShard[k] is the shard
	// owning ring[k]. owner caches the resolved shard per cell
	// (row-major n*m), so Observe pays one slice index, not a ring
	// lookup.
	ring      []uint64
	ringShard []int
	owner     []int
	shards    []*Estimator
}

// DefaultVNodes is the virtual-node count per shard on the hash ring;
// more vnodes smooth the key distribution across shards.
const DefaultVNodes = 64

// NewShardedEstimator builds a sharded estimator: cfg fixes the matrix
// shape and EWMA parameters of every shard, shards the shard count
// (≥ 1), vnodes the virtual nodes per shard (0 selects DefaultVNodes).
func NewShardedEstimator(cfg EstimatorConfig, shards, vnodes int) (*ShardedEstimator, error) {
	if shards < 1 {
		return nil, fmt.Errorf("control: %d estimator shards", shards)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("control: %d vnodes per shard", vnodes)
	}
	s := &ShardedEstimator{
		n:      cfg.Servers,
		m:      cfg.Sites,
		vnodes: vnodes,
	}
	for i := 0; i < shards; i++ {
		est, err := NewEstimator(cfg)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, est)
		for v := 0; v < vnodes; v++ {
			s.ring = append(s.ring, hash64(fmt.Sprintf("shard:%d:vnode:%d", i, v)))
			s.ringShard = append(s.ringShard, i)
		}
	}
	// Sort the ring keeping the shard labels aligned.
	idx := make([]int, len(s.ring))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.ring[idx[a]] < s.ring[idx[b]] })
	ring := make([]uint64, len(idx))
	ringShard := make([]int, len(idx))
	for k, i := range idx {
		ring[k], ringShard[k] = s.ring[i], s.ringShard[i]
	}
	s.ring, s.ringShard = ring, ringShard
	// Resolve every cell's owner once.
	s.owner = make([]int, s.n*s.m)
	for edge := 0; edge < s.n; edge++ {
		for site := 0; site < s.m; site++ {
			s.owner[edge*s.m+site] = s.locate(keyHash(edge, site))
		}
	}
	return s, nil
}

// hash64 is FNV-1a over the string.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// keyHash is the ring position of demand key (edge, site).
func keyHash(edge, site int) uint64 {
	return hash64(fmt.Sprintf("e%d:s%d", edge, site))
}

// locate walks the ring clockwise from h to the first vnode.
func (s *ShardedEstimator) locate(h uint64) int {
	k := sort.Search(len(s.ring), func(i int) bool { return s.ring[i] >= h })
	if k == len(s.ring) {
		k = 0
	}
	return s.ringShard[k]
}

// Shards returns the shard count.
func (s *ShardedEstimator) Shards() int { return len(s.shards) }

// Owner returns the shard owning demand key (edge, site) — exported for
// tests and the shards debug endpoint.
func (s *ShardedEstimator) Owner(edge, site int) int {
	if edge < 0 || edge >= s.n || site < 0 || site >= s.m {
		return -1
	}
	return s.owner[edge*s.m+site]
}

// Observe records one request at (edge, site) on the owning shard.
// Lock-free within the shard (one atomic add), like Estimator.Observe.
func (s *ShardedEstimator) Observe(edge, site int) { s.ObserveN(edge, site, 1) }

// ObserveN records k requests at once. Out-of-range keys are dropped.
func (s *ShardedEstimator) ObserveN(edge, site int, k int64) {
	if edge < 0 || edge >= s.n || site < 0 || site >= s.m || k <= 0 {
		return
	}
	s.shards[s.owner[edge*s.m+site]].ObserveN(edge, site, k)
}

// Roll closes the counting window on every shard and returns the total
// requests across shards — DemandSource's per-round window close.
func (s *ShardedEstimator) Roll() int64 {
	var total int64
	for _, sh := range s.shards {
		total = satAdd(total, sh.Roll())
	}
	return total
}

// Observed returns the total requests ever observed across shards.
func (s *ShardedEstimator) Observed() int64 {
	var total int64
	for _, sh := range s.shards {
		total = satAdd(total, sh.Observed())
	}
	return total
}

// Demand aggregates the shard-local raw EWMA matrices and normalizes to
// ΣΣ = 1. ok is false while no shard has folded in any request.
func (s *ShardedEstimator) Demand() (demand [][]float64, ok bool) {
	demand = make([][]float64, s.n)
	for i := range demand {
		demand[i] = make([]float64, s.m)
	}
	sum := 0.0
	for _, sh := range s.shards {
		rates := sh.RateMatrix()
		for i := 0; i < s.n; i++ {
			for j := 0; j < s.m; j++ {
				demand[i][j] += rates[i][j]
				sum += rates[i][j]
			}
		}
	}
	if sum <= 0 {
		return nil, false
	}
	for i := range demand {
		for j := range demand[i] {
			demand[i][j] /= sum
		}
	}
	return demand, true
}

// ServerRates returns each edge's aggregated EWMA requests/window.
func (s *ShardedEstimator) ServerRates() []float64 {
	out := make([]float64, s.n)
	for _, sh := range s.shards {
		for i, v := range sh.ServerRates() {
			out[i] += v
		}
	}
	return out
}

// SiteRates returns each site's aggregated EWMA requests/window.
func (s *ShardedEstimator) SiteRates() []float64 {
	out := make([]float64, s.m)
	for _, sh := range s.shards {
		for j, v := range sh.SiteRates() {
			out[j] += v
		}
	}
	return out
}

// WindowTotals returns the elementwise sum of the shards' sliding
// window rings (every shard rolls in the same Roll call, so the rings
// stay aligned), oldest first.
func (s *ShardedEstimator) WindowTotals() []int64 {
	var out []int64
	for _, sh := range s.shards {
		w := sh.WindowTotals()
		if len(w) > len(out) {
			grown := make([]int64, len(w))
			copy(grown[len(w)-len(out):], out)
			out = grown
		}
		for k := 0; k < len(w); k++ {
			out[len(out)-len(w)+k] = satAdd(out[len(out)-len(w)+k], w[k])
		}
	}
	return out
}

// SiteChurn implements ChurnSource: the shard-local first/last-seen
// vectors merge by min/max (a site's traffic may land on any shard
// depending on which edges issued it; the earliest first-seen and the
// latest last-seen are the global truth), and every shard rolls in the
// same Roll call, so any shard's roll count is the global one.
func (s *ShardedEstimator) SiteChurn() ChurnStats {
	first, last, rolls := s.mergeSeen()
	return churnStats(first, last, rolls)
}

// SiteAges implements ChurnSource.
func (s *ShardedEstimator) SiteAges() []int64 {
	_, last, rolls := s.mergeSeen()
	return siteAges(last, rolls)
}

// mergeSeen aggregates the shards' per-site seen history.
func (s *ShardedEstimator) mergeSeen() (first, last []int64, rolls int64) {
	first = make([]int64, s.m)
	last = make([]int64, s.m)
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.rolls > rolls {
			rolls = sh.rolls
		}
		for j := 0; j < s.m; j++ {
			if f := sh.firstSeen[j]; f > 0 && (first[j] == 0 || f < first[j]) {
				first[j] = f
			}
			if l := sh.lastSeen[j]; l > last[j] {
				last[j] = l
			}
		}
		sh.mu.Unlock()
	}
	return first, last, rolls
}

// ShardStatus is one shard's view for the /debug/control/shards page.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Keys is how many of the N×M demand keys the ring assigns to this
	// shard.
	Keys int `json:"keys"`
	// Observed is the shard's all-time observed request count; Rolls its
	// completed windows; RatePerWindow the shard's current aggregate
	// EWMA rate.
	Observed      int64   `json:"observed"`
	Rolls         int64   `json:"rolls"`
	RatePerWindow float64 `json:"rate_per_window"`
}

// ShardsPage is the /debug/control/shards payload.
type ShardsPage struct {
	Shards []ShardStatus `json:"shards"`
	// VNodes is the virtual-node count per shard on the hash ring;
	// KeySpace the total number of demand keys (N×M).
	VNodes   int `json:"vnodes"`
	KeySpace int `json:"key_space"`
}

// Status snapshots every shard for the debug endpoint.
func (s *ShardedEstimator) Status() ShardsPage {
	page := ShardsPage{VNodes: s.vnodes, KeySpace: s.n * s.m}
	keys := make([]int, len(s.shards))
	for _, owner := range s.owner {
		keys[owner]++
	}
	for i, sh := range s.shards {
		rate := 0.0
		for _, v := range sh.ServerRates() {
			rate += v
		}
		page.Shards = append(page.Shards, ShardStatus{
			Shard:         i,
			Keys:          keys[i],
			Observed:      sh.Observed(),
			Rolls:         sh.Rolls(),
			RatePerWindow: rate,
		})
	}
	return page
}
