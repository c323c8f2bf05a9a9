// Package lrumodel implements the paper's analytical model of the LRU
// cache hit ratio (§3.2), the first of its two contributions.
//
// The model considers one CDN server whose cache holds B object slots
// (B = cache bytes / average object size). An object that enters the
// cache and is never requested again is evicted after K subsequent
// requests, where K is approximated by Equation (2):
//
//	K = Σ_{i=1..B} t_i,   t_i = 1 / (1 - (i-1)·p_B/(B-1))
//
// with p_B the cumulative popularity of the B most popular cacheable
// objects. Given K, the steady-state hit ratio of site O_j whose objects
// follow a Zipf-like distribution with parameter θ is Equation (1):
//
//	h_j = Σ_{k=1..L} [1 - (1 - p_j·α/k^θ)^K] · α/k^θ
//
// where p_j is the site's popularity at the server and α the Zipf
// normalization constant. Uncacheable requests (§3.3) scale the result by
// (1 - λ_j).
//
// Following the paper's implementation notes (§4), the merged
// object-popularity list used for p_B is computed once when the predictor
// is built and frozen afterwards ("calculating K during each iteration
// produced the same result as... calculated once at the initialization
// step"), and hit ratios are memoized on a quantized (site, p, K) grid
// so that each lookup inside the placement loop is O(1). The paper quantizes
// K with granularity 5 time slots; so does this package by default.
package lrumodel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// SiteSpec carries the per-site statistics the model needs. A "site" is
// whatever unit the placement operates on: a whole web site in the paper,
// or one popularity cluster of a site under the per-cluster extension.
type SiteSpec struct {
	// Objects is L, the number of distinct objects of the unit.
	Objects int
	// Theta is the Zipf-like exponent of object popularity.
	Theta float64
	// Lambda is the fraction of the unit's requests that return
	// uncacheable (or stale, under strong consistency) documents.
	Lambda float64
	// RankOffset shifts the Zipf ranks: the unit's objects occupy
	// global popularity ranks RankOffset+1 .. RankOffset+Objects of
	// their site. Zero (the paper's whole-site case) means ranks start
	// at 1; popularity clusters of a site's tail use larger offsets.
	RankOffset int
}

// DefaultKStep is the K-quantization granularity used for memoization,
// matching the paper's "granularity of K was set to 5 time slots".
const DefaultKStep = 5.0

// DefaultPStep is the popularity-quantization granularity, matching the
// paper's pre-computation "granularity of p ... set to 10^-5".
const DefaultPStep = 1e-5

// Predictor predicts per-site cache hit ratios at a single CDN server.
// It is built from the full site catalog and the server's (fixed) site
// popularity vector; only the cache size varies across queries, which is
// exactly how the hybrid placement algorithm uses it.
//
// One Predictor type backs every ModelKind: the kind's law supplies the
// characteristic-time and hit-ratio mathematics, while the quantized
// memo grid, the frozen popularity prefix and the shared table are
// common machinery. Build one with New; the zero-value kind is eq1.
// Every hit-ratio method returns the model's value except
// SiteHitRatioCondUpper, a proven upper bound for cheap screening.
//
// A Predictor is not safe for concurrent use; the placement engines
// keep one per server and fan a batch's evaluations out through
// SiteHitRatiosCond.
type Predictor struct {
	kind ModelKind
	law  law

	specs  []SiteSpec
	pops   []float64 // p_j: normalized site popularity, frozen
	zipfs  []*stats.Zipf
	blocks [][]zipfBlock // per site: its Zipf's Jensen blocks (upper.go)
	avgObj float64       // ō: average object size in bytes

	// prefix[i] = cumulative popularity of the i most popular objects
	// across all sites (frozen at construction), i in 0..len(prefix)-1.
	prefix []float64

	kStep float64
	pStep float64
	kmemo map[int]float64  // B -> K
	hmemo map[hKey]float64 // (quantized p, quantized K) -> unadjusted hit ratio per site

	totalObjects int          // Σ_j Objects, frozen at construction
	shared       *SharedTable // optional cross-predictor memo (may be nil)

	// miss, evalMiss and sites are SiteHitRatiosCond's and its
	// wrappers' scratch, reused so a batch allocates nothing once they
	// have grown.
	miss     []batchMiss
	evalMiss func(x int)
	sites    []int
	// upperK, upperAt and upperH are SiteHitRatioCondUpperSizes'
	// scratch: the grid K, output index and bound of each size it
	// evaluates.
	upperK, upperH []float64
	upperAt        []int
}

// batchMiss is one grid point a SiteHitRatiosCond batch evaluates, or
// (ref ≥ 0) a site whose shared key duplicates that of miss ref.
type batchMiss struct {
	ref      int
	key      hKey
	sk       sharedKey
	pSite, k float64
	h        float64
}

// Fan runs f(x) for every x in [0, n), possibly concurrently, and
// returns when all have run. A nil Fan runs them in order.
type Fan func(n int, f func(x int))

type hKey struct {
	site int
	pq   int64 // quantized effective popularity bucket
	kq   int64 // quantized K bucket; -1 encodes K = +Inf
}

// law is the pluggable replacement-policy mathematics behind a
// Predictor: how the characteristic time follows from the slot count,
// and how the per-site hit ratio is evaluated at one quantized
// (popularity, characteristic-time) grid point. Everything else — the
// B/K guards, the λ adjustment, the conditional renormalization, the
// private and shared memo tables — is shared across laws.
type law interface {
	// charTime returns the characteristic time for B slots. Callers
	// have already handled B ≤ 0 and the everything-fits regime.
	charTime(p *Predictor, B int) float64
	// siteHit returns the un-λ-adjusted hit ratio of site j when the
	// site's effective popularity is pSite and the characteristic time
	// is K (possibly +Inf).
	siteHit(p *Predictor, j int, pSite, K float64) float64
	// siteHitUpper stores in out[x] an upper bound on siteHit at
	// (pSite, ks[x]) for every x, proven rather than measured
	// (upper.go), and cheaper where it can.
	siteHitUpper(p *Predictor, j int, pSite float64, ks, out []float64)
}

// eq1Law is the paper's own model: Equation (2) for K and Equation (1)
// for the hit ratio. It is the default.
type eq1Law struct{}

func (eq1Law) charTime(p *Predictor, B int) float64 { return kApprox(B, p.TopMass(B)) }
func (eq1Law) siteHit(p *Predictor, j int, pSite, K float64) float64 {
	return hitRatioExact(pSite, p.zipfs[j], K)
}

// SharedTable memoizes Equation (1) evaluations on the quantized
// (popularity, K) grid across predictors. The memoized value is a pure
// function of the grid point and the site's Zipf shape (rank offset,
// catalog size, θ) — it does not depend on which server or site asks —
// so predictors built over the same site catalog can share one table:
// this is the paper's "pre-computed at the initialization step" table
// generalized across the N per-server predictors. Sharing changes no
// bits, only who computes each entry first.
//
// The table also interns the Zipf distributions themselves by shape:
// the N predictors over one M-site catalog read M PMF tables between
// them instead of building N·M. Each one's Jensen block table
// (upper.go) is built with it and lives exactly as long.
//
// A SharedTable is safe for concurrent use. Each predictor still keeps
// its private unsynchronized memo in front of it, so the shared lock is
// only taken on private misses.
type SharedTable struct {
	mu    sync.RWMutex
	m     map[sharedKey]float64
	zipfs map[zipfShape]*internedZipf
	// hits/misses count lookups served from / added to the table,
	// atomically (lookup holds only the read lock). They feed the warm
	// reconcile audit: a warm round that reuses the previous round's
	// table shows up as a high hit fraction here.
	hits, misses atomic.Int64
}

type sharedKey struct {
	kind       ModelKind
	rankOffset int
	objects    int
	theta      float64
	pq, kq     int64
}

// zipfShape identifies a Zipf distribution: its first global rank, its
// size and its exponent.
type zipfShape struct {
	start, objects int
	theta          float64
}

// internedZipf is one interned distribution and its Jensen blocks.
type internedZipf struct {
	z      *stats.Zipf
	blocks []zipfBlock
}

// NewSharedTable returns an empty shared hit-ratio table.
func NewSharedTable() *SharedTable {
	return &SharedTable{m: make(map[sharedKey]float64), zipfs: make(map[zipfShape]*internedZipf)}
}

// zipf returns the table's distribution of the given shape, building it
// and its block table on first use. Both are immutable once built.
func (t *SharedTable) zipf(shape zipfShape) *internedZipf {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.zipfs[shape]
	if e == nil {
		z := stats.NewZipfRange(shape.start, shape.objects, shape.theta)
		e = &internedZipf{z: z, blocks: zipfBlocks(z.PMFs())}
		t.zipfs[shape] = e
	}
	return e
}

// Len returns the number of memoized grid points.
func (t *SharedTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// SharedTableStats is a point-in-time snapshot of a table's traffic.
type SharedTableStats struct {
	// Entries is the number of memoized grid points.
	Entries int `json:"entries"`
	// Hits counts lookups served from the table; Misses counts lookups
	// that fell through to an Equation (1) evaluation (each miss stores
	// one entry, so Misses ≥ Entries only via re-stores, which do not
	// occur — the two are equal in practice).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the table's size and hit/miss counters.
func (t *SharedTable) Stats() SharedTableStats {
	return SharedTableStats{
		Entries: t.Len(),
		Hits:    t.hits.Load(),
		Misses:  t.misses.Load(),
	}
}

func (t *SharedTable) lookup(k sharedKey) (float64, bool) {
	t.mu.RLock()
	h, ok := t.m[k]
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return h, ok
}

func (t *SharedTable) store(k sharedKey, h float64) {
	t.mu.Lock()
	t.m[k] = h
	t.mu.Unlock()
}

// newPredictor is the constructor behind New; kind must already be
// validated. weights are normalized internally (the paper's
// p_j = r_j/Σ r_k); the frozen popularity prefix is computed up to the B
// of maxCacheBytes. Predictors attached to one shared table should be
// built over the same catalog: the table is keyed by Zipf shape, so a
// mismatched catalog merely wastes entries, it cannot corrupt results.
func newPredictor(kind ModelKind, specs []SiteSpec, weights []float64, avgObjBytes float64, maxCacheBytes int64, shared *SharedTable) (*Predictor, error) {
	if len(specs) != len(weights) {
		return nil, fmt.Errorf("lrumodel: %d specs but %d weights", len(specs), len(weights))
	}
	if avgObjBytes <= 0 {
		return nil, fmt.Errorf("lrumodel: avgObjBytes = %v", avgObjBytes)
	}
	p := &Predictor{
		kind:   kind,
		law:    lawFor(kind),
		specs:  specs,
		avgObj: avgObjBytes,
		kStep:  DefaultKStep,
		pStep:  DefaultPStep,
		kmemo:  make(map[int]float64),
		hmemo:  make(map[hKey]float64),
		shared: shared,
	}
	for _, s := range specs {
		p.totalObjects += s.Objects
	}
	total := 0.0
	for j, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("lrumodel: negative weight %v for site %d", w, j)
		}
		total += w
	}
	p.pops = make([]float64, len(weights))
	for j, w := range weights {
		if total > 0 {
			p.pops[j] = w / total
		}
	}
	p.zipfs = make([]*stats.Zipf, len(specs))
	p.blocks = make([][]zipfBlock, len(specs))
	intern := shared
	if intern == nil {
		// No table to share with other predictors: this one's sites of
		// one shape still share a distribution among themselves.
		intern = NewSharedTable()
	}
	for j, s := range specs {
		if s.Objects < 1 {
			return nil, fmt.Errorf("lrumodel: site %d has %d objects", j, s.Objects)
		}
		if s.Lambda < 0 || s.Lambda > 1 {
			return nil, fmt.Errorf("lrumodel: site %d has lambda %v", j, s.Lambda)
		}
		if s.RankOffset < 0 {
			return nil, fmt.Errorf("lrumodel: site %d has rank offset %d", j, s.RankOffset)
		}
		e := intern.zipf(zipfShape{s.RankOffset + 1, s.Objects, s.Theta})
		p.zipfs[j], p.blocks[j] = e.z, e.blocks
	}
	p.buildPrefix(p.B(maxCacheBytes))
	return p, nil
}

// Kind identifies the model law behind this predictor.
func (p *Predictor) Kind() ModelKind {
	if p.kind == "" {
		return ModelEq1
	}
	return p.kind
}

// buildPrefix merges the per-site object popularity lists (each sorted
// descending by construction: Zipf PMFs decrease in rank) and stores the
// cumulative mass of the top-i objects, for i up to maxB. This is the
// sorted list of §4 used to estimate p_B, built once.
//
// The k-way merge runs through a loser tree (mergeTree): a pop replays
// one leaf-to-root path at one comparison per level. Whatever order ties
// pop in, the popped values form the same descending sequence, so the
// sums are the same bits.
func (p *Predictor) buildPrefix(maxB int) {
	n := maxB
	if n > p.totalObjects {
		n = p.totalObjects
	}
	p.prefix = make([]float64, n+1)
	var t mergeTree
	for j := range p.specs {
		if p.pops[j] > 0 {
			t.src = append(t.src, mergeSrc{pop: p.pops[j], pmf: p.zipfs[j].PMFs()})
		}
	}
	t.init()
	cum := 0.0
	i := 1
	for ; i <= n; i++ {
		v, ok := t.pop()
		if !ok {
			break
		}
		cum += v
		p.prefix[i] = cum
	}
	// Slots past the last object with positive popularity (sites this
	// server never requests) add no mass: p_B stays at the full mass
	// instead of dropping to 0, which would make a larger cache predict
	// a lower hit ratio.
	for ; i <= n; i++ {
		p.prefix[i] = cum
	}
}

// B converts a cache size in bytes to buffer slots: B ≈ c/ō (§3.2).
func (p *Predictor) B(cacheBytes int64) int {
	if cacheBytes <= 0 {
		return 0
	}
	return int(float64(cacheBytes) / p.avgObj)
}

// TotalObjects returns the number of objects across all sites (frozen
// at construction — the placement loop calls this on every K lookup).
func (p *Predictor) TotalObjects() int { return p.totalObjects }

// TopMass returns the frozen p_B: the cumulative popularity of the B most
// popular objects. B values beyond the frozen prefix clamp to its end.
func (p *Predictor) TopMass(B int) float64 {
	if B <= 0 {
		return 0
	}
	if B >= len(p.prefix) {
		return p.prefix[len(p.prefix)-1]
	}
	return p.prefix[B]
}

// K evaluates the model's characteristic time for the cache size in
// bytes — Equation (2) for eq1, Che's T_C or the RANDOM/FIFO T. It
// returns 0 for an empty cache and +Inf when every object fits (the
// cache never evicts). Results are memoized per B.
func (p *Predictor) K(cacheBytes int64) float64 {
	return p.KForB(p.B(cacheBytes))
}

// KForB is K for an explicit slot count B.
func (p *Predictor) KForB(B int) float64 {
	if B <= 0 {
		return 0
	}
	if B >= p.TotalObjects() {
		return math.Inf(1)
	}
	if k, ok := p.kmemo[B]; ok {
		return k
	}
	k := p.law.charTime(p, B)
	p.kmemo[B] = k
	return k
}

// kApprox is the raw Equation (2): K = Σ_{i=1..B} 1/(1 - (i-1)·pB/(B-1)).
func kApprox(B int, pB float64) float64 {
	if B <= 0 {
		return 0
	}
	if B == 1 {
		return 1
	}
	if pB >= 1 {
		return math.Inf(1)
	}
	k := 0.0
	step := pB / float64(B-1)
	for i := 0; i < B; i++ {
		denom := 1 - float64(i)*step
		if denom <= 1e-12 {
			return math.Inf(1)
		}
		k += 1 / denom
	}
	return k
}

// SiteHitRatio evaluates Equation (1) for site j with the given cache
// size, adjusted by the uncacheable fraction (×(1-λ_j), §3.3). The
// site's popularity is taken over all sites (visible mass 1) — the
// pure-caching configuration where every site competes for the cache.
func (p *Predictor) SiteHitRatio(j int, cacheBytes int64) float64 {
	return p.siteHitRatioK(j, 1, p.K(cacheBytes))
}

// SiteHitRatioCond is SiteHitRatio with the site's popularity
// renormalized over the sites still visible to the cache: when some sites
// are replicated at the server, their requests no longer traverse the
// cache, so "the popularity of the rest of the objects is increased
// accordingly" (§4). visibleMass is the summed SitePopularity of the
// non-replicated sites (site j included); it must be positive and at
// least p_j.
func (p *Predictor) SiteHitRatioCond(j int, visibleMass float64, cacheBytes int64) float64 {
	if visibleMass <= 0 {
		return 0
	}
	return p.siteHitRatioK(j, visibleMass, p.K(cacheBytes))
}

// gridKey quantizes site j's effective popularity over visibleMass and
// the characteristic time K to the memo grid.
func (p *Predictor) gridKey(j int, visibleMass float64, K float64) hKey {
	if j < 0 || j >= len(p.specs) {
		panic(fmt.Sprintf("lrumodel: site %d out of range", j))
	}
	pEff := p.pops[j] / visibleMass
	if pEff > 1 {
		pEff = 1
	}
	key := hKey{site: j, pq: int64(math.Round(pEff / p.pStep)), kq: int64(-1)}
	if !math.IsInf(K, 1) {
		key.kq = int64(math.Round(K / p.kStep))
	}
	return key
}

// gridPoint is the (popularity, K) a memo entry is evaluated at — the
// quantized point, so the memo is self-consistent (the paper's
// pre-computed table does the same). K is the unquantized value, used
// as is only when it is +Inf.
func (p *Predictor) gridPoint(key hKey, K float64) (pSite, kEff float64) {
	kEff = K
	if key.kq >= 0 {
		kEff = float64(key.kq) * p.kStep
	}
	return float64(key.pq) * p.pStep, kEff
}

// sharedKey is the shared table's key for the private memo key: the
// grid point and the site's Zipf shape, not the site.
func (p *Predictor) sharedKey(key hKey) sharedKey {
	s := p.specs[key.site]
	return sharedKey{kind: p.Kind(), rankOffset: s.RankOffset, objects: s.Objects, theta: s.Theta, pq: key.pq, kq: key.kq}
}

func (p *Predictor) siteHitRatioK(j int, visibleMass float64, K float64) float64 {
	key := p.gridKey(j, visibleMass, K)
	if h, ok := p.hmemo[key]; ok {
		return h * (1 - p.specs[j].Lambda)
	}
	var sk sharedKey
	if p.shared != nil {
		sk = p.sharedKey(key)
		if h, ok := p.shared.lookup(sk); ok {
			p.hmemo[key] = h
			return h * (1 - p.specs[j].Lambda)
		}
	}
	pSite, kEff := p.gridPoint(key, K)
	h := p.law.siteHit(p, j, pSite, kEff)
	p.hmemo[key] = h
	if p.shared != nil {
		p.shared.store(sk, h)
	}
	return h * (1 - p.specs[j].Lambda)
}

// SiteHitRatiosCond stores SiteHitRatioCond(j, visibleMass, cacheBytes)
// in out[j] for every j of sites, bit for bit, and leaves the other
// entries of out alone. It looks K up once and both memos serially, then
// evaluates the distinct missing grid points under fan: a miss is a pure
// function of its grid point and an immutable Zipf, so misses may run
// concurrently. The private memo, the shared table and its Stats end up
// as the calls made one by one would leave them: a site whose shared key
// an earlier site of the batch already missed is evaluated once and
// counts as the shared hit it would have been, so Stats().Misses stays
// an evaluation count. Batches of fewer than two misses, or a nil fan,
// evaluate inline, and fan is never called while another method of the
// predictor runs. sites must be distinct.
func (p *Predictor) SiteHitRatiosCond(sites []int, visibleMass float64, cacheBytes int64, out []float64, fan Fan) {
	if visibleMass <= 0 {
		for _, j := range sites {
			out[j] = 0
		}
		return
	}
	K := p.K(cacheBytes)
	miss := p.miss[:0]
	for _, j := range sites {
		key := p.gridKey(j, visibleMass, K)
		if h, ok := p.hmemo[key]; ok {
			out[j] = h * (1 - p.specs[j].Lambda)
			continue
		}
		b := batchMiss{ref: -1, key: key}
		if p.shared != nil {
			b.sk = p.sharedKey(key)
			if b.ref = batchRef(miss, b.sk); b.ref >= 0 {
				p.shared.hits.Add(1)
				miss = append(miss, b)
				continue
			}
			if h, ok := p.shared.lookup(b.sk); ok {
				p.hmemo[key] = h
				out[j] = h * (1 - p.specs[j].Lambda)
				continue
			}
		}
		b.pSite, b.k = p.gridPoint(key, K)
		miss = append(miss, b)
	}
	p.miss = miss
	if p.evalMiss == nil {
		p.evalMiss = func(x int) {
			if b := &p.miss[x]; b.ref < 0 {
				b.h = p.law.siteHit(p, b.key.site, b.pSite, b.k)
			}
		}
	}
	if fan == nil || len(miss) < 2 {
		for x := range miss {
			p.evalMiss(x)
		}
	} else {
		fan(len(miss), p.evalMiss)
	}
	for x := range miss {
		b := &miss[x]
		if b.ref >= 0 {
			b.h = miss[b.ref].h
		} else if p.shared != nil {
			p.shared.store(b.sk, b.h)
		}
		p.hmemo[b.key] = b.h
		out[b.key.site] = b.h * (1 - p.specs[b.key.site].Lambda)
	}
}

// batchRef returns the index of the first evaluated miss with shared
// key sk, or -1.
func batchRef(miss []batchMiss, sk sharedKey) int {
	for x := range miss {
		if miss[x].ref < 0 && miss[x].sk == sk {
			return x
		}
	}
	return -1
}

// HitRatios returns the λ-adjusted hit ratio of every site at the given
// cache size, with every site visible to the cache.
func (p *Predictor) HitRatios(cacheBytes int64) []float64 {
	sites := p.sites[:0]
	for j := range p.specs {
		sites = append(sites, j)
	}
	p.sites = sites
	out := make([]float64, len(p.specs))
	p.SiteHitRatiosCond(sites, 1, cacheBytes, out, nil)
	return out
}

// HitRatiosCond is HitRatios with only the sites where visible[j] is true
// traversing the cache; entries for invisible (replicated) sites are 0.
func (p *Predictor) HitRatiosCond(visible []bool, cacheBytes int64) []float64 {
	if len(visible) != len(p.specs) {
		panic(fmt.Sprintf("lrumodel: %d visibility flags for %d sites", len(visible), len(p.specs)))
	}
	mass := 0.0
	sites := p.sites[:0]
	for j, v := range visible {
		if v {
			mass += p.pops[j]
			sites = append(sites, j)
		}
	}
	p.sites = sites
	out := make([]float64, len(p.specs))
	p.SiteHitRatiosCond(sites, mass, cacheBytes, out, nil)
	return out
}

// OverallHitRatio returns the request-weighted hit ratio Σ p_j·h_j at the
// given cache size — the fraction of all requests at this server that the
// cache absorbs (all sites visible).
func (p *Predictor) OverallHitRatio(cacheBytes int64) float64 {
	K := p.K(cacheBytes)
	total := 0.0
	for j := range p.specs {
		total += p.pops[j] * p.siteHitRatioK(j, 1, K)
	}
	return total
}

// SitePopularity returns the frozen normalized popularity p_j.
func (p *Predictor) SitePopularity(j int) float64 { return p.pops[j] }

// mergeSrc is one site's descending popularity list in a mergeTree:
// pop·pmf[k] for k = next, next+1, ….
type mergeSrc struct {
	pop  float64
	pmf  []float64
	next int
}

// mergeTree merges mergeSrc lists into one descending sequence through a
// tournament tree of losers. Leaf x (of a power-of-two count, padded with
// empty leaves) plays with key[x], the bits of its source's next value
// as an int64 — every value is ≥ 0, so the bits order as the values do —
// or −1 once the source is exhausted. node[v] for v ≥ 1 holds the leaf
// that lost the match played at internal node v, node[0] the overall
// winner; replacing the winner's key replays only its own path, one
// comparison per level.
type mergeTree struct {
	src  []mergeSrc
	key  []int64
	node []int32
}

// init keys every leaf at its source's first value and plays the
// tournament bottom-up.
func (t *mergeTree) init() {
	leaves := 1
	for leaves < len(t.src) {
		leaves *= 2
	}
	t.key = make([]int64, leaves)
	for x := range t.key {
		t.key[x] = t.keyOf(x)
	}
	t.node = make([]int32, leaves)
	win := make([]int32, 2*leaves) // win[v]: the winner of the subtree at v
	for x := 0; x < leaves; x++ {
		win[leaves+x] = int32(x)
	}
	for v := leaves - 1; v >= 1; v-- {
		a, b := win[2*v], win[2*v+1]
		if t.key[b] > t.key[a] {
			a, b = b, a
		}
		win[v], t.node[v] = a, b
	}
	t.node[0] = win[1]
}

// keyOf is leaf x's key at its source's next value.
func (t *mergeTree) keyOf(x int) int64 {
	if x >= len(t.src) || t.src[x].next >= len(t.src[x].pmf) {
		return -1
	}
	s := &t.src[x]
	return int64(math.Float64bits(s.pop * s.pmf[s.next]))
}

// pop returns the largest remaining value, or false once every source
// is exhausted.
func (t *mergeTree) pop() (float64, bool) {
	w := t.node[0]
	k := t.key[w]
	if k < 0 {
		return 0, false
	}
	t.src[w].next++
	wk := t.keyOf(int(w))
	t.key[w] = wk
	for v := (int(w) + len(t.key)) >> 1; v > 0; v >>= 1 {
		// Branch-free: which side wins is a coin toss the branch
		// predictor cannot learn.
		l := t.node[v]
		lk, lose := t.key[l], l
		if lk > wk {
			lose, w, wk = w, l, lk
		}
		t.node[v] = lose
	}
	t.node[0] = w
	return math.Float64frombits(uint64(k)), true
}
