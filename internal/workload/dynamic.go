// Dynamic catalogs: publish/perish churn on top of the static SURGE
// workload.
//
// The paper's workload (and Eq.(1)'s steady-state hit-ratio model)
// assumes a fixed catalog: every site exists for the whole run with a
// popularity drawn once. "Catalog Dynamics: Impact of Content Publishing
// and Perishing on the Performance of a LRU Cache" (Olmos et al.,
// PAPERS.md) models the regime real CDNs live in — content is published,
// draws a burst of attention, and perishes — and shows where the
// steady-state models go wrong. DynamicStream reproduces that regime on
// top of the existing workload:
//
//   - each of the M site slots carries a *generation* of content; a live
//     generation perishes after an exponential lifetime (rate PerishRate
//     per request), and Poisson publish events (rate PublishRate per
//     request) refill the longest-dead slot with generation g+1;
//   - a republished slot's popularity is re-sampled at birth from the
//     catalog's class-weight mix — new content does not inherit its
//     predecessor's popularity;
//   - a new release can open with a flash crowd: its weight is
//     multiplied by FlashCrowdBoost for the first FlashCrowdRequests
//     requests of its life;
//   - a slot can be an HLS-style segment chain (probability
//     SegmentChainProb at birth): a request that lands on it starts a
//     per-server session that fetches ChainLength consecutive segments
//     in rank order, like a viewer playing a stream;
//   - perished slots keep a small residual weight (DefaultPerishedWeight):
//     stale links and bookmarks keep producing requests the CDN must
//     answer with a 404 from the origin.
//
// Keeping the number of slots fixed keeps every N×M matrix in the system
// (demand, placement, estimator) shape-stable while the content identity
// behind each column churns — which is exactly what makes placement
// decisions go stale.

package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// DynamicConfig parameterizes catalog churn. The zero value disables
// every dynamic feature: a DynamicStream with a zero DynamicConfig is
// byte-identical to the static Stream (test-pinned).
type DynamicConfig struct {
	// PublishRate is the expected number of site publications per
	// request (a Poisson process on the request clock). Each publication
	// refills the longest-dead slot with a fresh content generation; if
	// every slot is live the event is dropped (the catalog is full).
	PublishRate float64
	// PerishRate is each live generation's death rate per request:
	// lifetimes are exponential with mean 1/PerishRate requests.
	PerishRate float64
	// FlashCrowdBoost multiplies a newly published generation's weight
	// for its first FlashCrowdRequests requests. Values <= 1 disable
	// flash crowds.
	FlashCrowdBoost    float64
	FlashCrowdRequests int
	// SegmentChainProb is the probability that a (re)published slot is
	// an HLS-style segment chain; a request landing on a chain slot
	// starts a per-server session of ChainLength consecutive segments.
	SegmentChainProb float64
	// ChainLength is the session length in segments (default
	// DefaultChainLength when SegmentChainProb > 0).
	ChainLength int
}

const (
	// DefaultPerishedWeight is the fraction of a slot's popularity that
	// keeps arriving as stale-link traffic after it perishes.
	DefaultPerishedWeight = 0.02
	// DefaultChainLength is the session length when ChainLength is 0.
	DefaultChainLength = 12
)

// Dynamic reports whether any dynamic feature is enabled. False means
// DynamicStream delegates every draw to the static Stream.
func (c DynamicConfig) Dynamic() bool {
	return c.PublishRate > 0 || c.PerishRate > 0 ||
		(c.FlashCrowdBoost > 1 && c.FlashCrowdRequests > 0) ||
		c.SegmentChainProb > 0
}

// Validate reports a configuration error, or nil.
func (c DynamicConfig) Validate() error {
	switch {
	case c.PublishRate < 0 || c.PerishRate < 0:
		return fmt.Errorf("workload: negative churn rate (publish=%v perish=%v)", c.PublishRate, c.PerishRate)
	case c.FlashCrowdRequests < 0:
		return fmt.Errorf("workload: FlashCrowdRequests = %v", c.FlashCrowdRequests)
	case c.SegmentChainProb < 0 || c.SegmentChainProb > 1:
		return fmt.Errorf("workload: SegmentChainProb = %v", c.SegmentChainProb)
	case c.ChainLength < 0:
		return fmt.Errorf("workload: ChainLength = %v", c.ChainLength)
	}
	return nil
}

// slotState is one site slot's current content generation.
type slotState struct {
	gen    int
	live   bool
	bornAt int64 // request clock at the current generation's birth
	dieAt  int64 // scheduled perish time while live
	weight float64
	chain  bool
}

// chainSession is a server's in-progress segment-chain playback.
type chainSession struct {
	site int
	next int // next 1-based segment rank
	left int // segments remaining
}

// DynamicStream draws an endless request sequence from a catalog whose
// content churns. With a zero DynamicConfig it is the static Stream;
// otherwise each request advances a virtual clock (one tick per
// request), perish/publish/flash events fire on that clock, and
// the server×site sampling CDF is rebuilt lazily on each event.
//
// Determinism: the request draws consume the same root RNG the static
// Stream uses, and all churn draws (lifetimes, publish gaps, birth
// popularity, chain coin-flips) come from a Split sub-stream — Split
// does not advance the parent, so enabling churn never perturbs the
// underlying draw machinery, and equal (workload, config, seed) triples
// yield identical request sequences.
type DynamicStream struct {
	w    *Workload
	cfg  DynamicConfig
	base *Stream
	// churn is nil when cfg.Dynamic() is false — the delegate marker.
	churn *xrand.Source

	t     int64
	slots []slotState
	// spread[i][j] = Demand[i][j] / Weight[j]: the per-server share of
	// site j's volume, invariant under popularity re-sampling.
	spread    [][]float64
	cdf       []float64   // flattened server×site CDF, scaled by its total
	guide     stats.Guide // over cdf, rebuilt with it
	cols      int
	dirty     bool
	nextEvent int64
	nextPub   int64
	sessions  []chainSession

	chainLen int

	publishes, perishes int64
}

// NewDynamicStream creates a dynamic request stream over w driven by r.
// The same (w, cfg, seed) triple always yields the identical sequence,
// and a zero cfg yields exactly NewStream(w, r)'s sequence.
func NewDynamicStream(w *Workload, cfg DynamicConfig, r *xrand.Source) (*DynamicStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &DynamicStream{w: w, cfg: cfg, base: NewStream(w, r), cols: len(w.Sites)}
	if !cfg.Dynamic() {
		return s, nil
	}
	if w.Cfg.LocalityProb > 0 {
		// The chain sessions are the dynamic stream's locality model;
		// layering the static recency buffer on top would double-count.
		return nil, fmt.Errorf("workload: dynamic catalog and LocalityProb are mutually exclusive")
	}
	s.churn = r.Split("catalog-churn")
	s.chainLen = cfg.ChainLength
	if s.chainLen == 0 {
		s.chainLen = DefaultChainLength
	}
	s.sessions = make([]chainSession, w.Cfg.Servers)
	s.slots = make([]slotState, s.cols)
	for j := range s.slots {
		s.slots[j] = slotState{
			live: true,
			// The initial catalog is mature: no flash crowd.
			bornAt: math.MinInt64 / 2,
			dieAt:  math.MaxInt64,
			weight: w.Sites[j].Weight,
			chain:  s.churn.Float64() < cfg.SegmentChainProb,
		}
		if cfg.PerishRate > 0 {
			s.slots[j].dieAt = 1 + int64(s.churn.ExpFloat64()/cfg.PerishRate)
		}
	}
	s.nextPub = math.MaxInt64
	if cfg.PublishRate > 0 {
		s.nextPub = 1 + int64(s.churn.ExpFloat64()/cfg.PublishRate)
	}
	s.spread = make([][]float64, w.Cfg.Servers)
	for i := range s.spread {
		s.spread[i] = make([]float64, s.cols)
		for j := range s.spread[i] {
			if wj := w.Sites[j].Weight; wj > 0 {
				s.spread[i][j] = w.Demand[i][j] / wj
			}
		}
	}
	s.cdf = make([]float64, w.Cfg.Servers*s.cols)
	s.dirty = true
	s.scheduleNextEvent()
	return s, nil
}

// MustNewDynamicStream is NewDynamicStream for known-good configs.
func MustNewDynamicStream(w *Workload, cfg DynamicConfig, r *xrand.Source) *DynamicStream {
	s, err := NewDynamicStream(w, cfg, r)
	if err != nil {
		panic(err)
	}
	return s
}

// Generation returns the slot's current content generation.
func (s *DynamicStream) Generation(site int) int {
	if s.churn == nil {
		return 0
	}
	return s.slots[site].gen
}

// Live reports whether the slot's current generation is still published.
func (s *DynamicStream) Live(site int) bool {
	if s.churn == nil {
		return true
	}
	return s.slots[site].live
}

// Publishes and Perishes report the catalog turnover so far.
func (s *DynamicStream) Publishes() int64 { return s.publishes }
func (s *DynamicStream) Perishes() int64  { return s.perishes }

// Next draws the next request.
func (s *DynamicStream) Next() Request {
	if s.churn == nil {
		return s.base.Next()
	}
	t := s.t
	s.t++
	if t >= s.nextEvent {
		s.processEvents(t)
	}
	if s.dirty {
		s.rebuild(t)
	}

	r := s.base.r
	idx := s.guide.Search(r.Float64())
	if idx >= len(s.cdf) {
		idx = len(s.cdf) - 1
	}
	server := idx / s.cols
	site := idx % s.cols

	// An in-progress chain session overrides the site draw: the viewer
	// keeps fetching the next segment of the stream it is playing.
	var object int
	if sess := &s.sessions[server]; sess.left > 0 {
		site = sess.site
		object = sess.next
		sess.next = sess.next%len(s.w.Sites[site].Objects) + 1
		sess.left--
	} else {
		object = s.w.Sites[site].Zipf.Sample(r)
		if s.slots[site].chain && s.chainLen > 1 {
			// Join the stream at a popularity-weighted entry point and
			// play ChainLength segments from there (cyclic in rank).
			*sess = chainSession{
				site: site,
				next: object%len(s.w.Sites[site].Objects) + 1,
				left: s.chainLen - 1,
			}
		}
	}

	sl := &s.slots[site]
	return Request{
		Server:     server,
		Site:       site,
		Object:     object,
		Cacheable:  r.Float64() >= s.w.Cfg.Lambda,
		Generation: sl.gen,
		Perished:   !sl.live,
	}
}

// processEvents fires every perish/publish event due at or before t and
// reschedules the next wake-up.
func (s *DynamicStream) processEvents(t int64) {
	for j := range s.slots {
		sl := &s.slots[j]
		if sl.live && sl.dieAt <= t {
			sl.live = false
			s.perishes++
			s.dirty = true
		}
	}
	for s.nextPub <= t {
		s.publish(s.nextPub)
		s.nextPub += 1 + int64(s.churn.ExpFloat64()/s.cfg.PublishRate)
	}
	// Every scheduled wake-up changes the effective weights — a perish,
	// a publish or a flash window closing — so any fired event forces a
	// CDF rebuild.
	s.dirty = true
	s.scheduleNextEvent()
}

// publish refills the longest-dead slot with a fresh generation. With
// every slot live the event is dropped: the catalog is at capacity.
func (s *DynamicStream) publish(t int64) {
	j := -1
	var oldest int64 = math.MaxInt64
	for k := range s.slots {
		if sl := &s.slots[k]; !sl.live && sl.dieAt < oldest {
			j, oldest = k, sl.dieAt
		}
	}
	if j < 0 {
		return
	}
	sl := &s.slots[j]
	sl.gen++
	sl.live = true
	sl.bornAt = t
	// Popularity is re-sampled at birth from the catalog's class-weight
	// mix: the replacement of a blockbuster is usually not one.
	sl.weight = s.w.Sites[s.churn.Intn(s.cols)].Weight
	sl.chain = s.churn.Float64() < s.cfg.SegmentChainProb
	sl.dieAt = math.MaxInt64
	if s.cfg.PerishRate > 0 {
		sl.dieAt = t + 1 + int64(s.churn.ExpFloat64()/s.cfg.PerishRate)
	}
	s.publishes++
	s.dirty = true
}

// scheduleNextEvent finds the next request-clock tick at which anything
// changes: a perish, a publish or a flash window closing. Between
// events Next is a pure CDF draw.
func (s *DynamicStream) scheduleNextEvent() {
	next := s.nextPub
	for j := range s.slots {
		sl := &s.slots[j]
		if !sl.live {
			continue
		}
		if sl.dieAt < next {
			next = sl.dieAt
		}
		if s.cfg.FlashCrowdBoost > 1 && s.cfg.FlashCrowdRequests > 0 {
			if end := sl.bornAt + int64(s.cfg.FlashCrowdRequests); end > s.t && end < next {
				next = end
			}
		}
	}
	s.nextEvent = next
}

// rebuild recomputes the sampling CDF from the current slot weights and
// flash windows.
func (s *DynamicStream) rebuild(t int64) {
	effW := make([]float64, s.cols)
	for j := range s.slots {
		sl := &s.slots[j]
		w := sl.weight
		switch {
		case !sl.live:
			w *= DefaultPerishedWeight
		case s.cfg.FlashCrowdBoost > 1 && t < sl.bornAt+int64(s.cfg.FlashCrowdRequests):
			w *= s.cfg.FlashCrowdBoost
		}
		effW[j] = w
	}
	n := s.w.Cfg.Servers
	cum := 0.0
	idx := 0
	for i := 0; i < n; i++ {
		for j := 0; j < s.cols; j++ {
			cum += s.spread[i][j] * effW[j]
			s.cdf[idx] = cum
			idx++
		}
	}
	s.guide.Build(s.cdf, cum)
	s.dirty = false
}
