// Package workload synthesizes the CDN request workload of §5.1.
//
// The authors note that no public CDN traces exist and therefore generate
// a separate SURGE-model [3] synthetic workload per hosted web site. This
// package reproduces the parts of SURGE the evaluation depends on:
//
//   - each of the M sites has L objects whose popularity follows a
//     Zipf-like distribution with parameter θ (§3, [22]);
//   - object sizes are heavy-tailed: a lognormal body with a
//     bounded-Pareto tail, SURGE's hybrid size model;
//   - sites fall into popularity classes — the paper uses 5 low, 10
//     medium and 5 high-popularity sites — that scale their total request
//     volume;
//   - the fraction of each site's requests issued by server S(i) follows
//     a normal distribution with µ = 1/N and σ = 1/4N, truncated to
//     µ ± 3σ.
//
// SURGE's user-equivalent ON/OFF timing machinery is deliberately
// omitted: the simulator is trace-driven and response time is a pure
// function of hop distance, so inter-arrival times never enter the
// measured quantities (see DESIGN.md).
package workload

import (
	"fmt"

	"repro/internal/lrumodel"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Class labels a site's popularity tier.
type Class int

// Site popularity classes (§5.1: "5 sites of low popularity, 10 sites of
// medium popularity and 5 sites of high popularity").
const (
	ClassLow Class = iota
	ClassMedium
	ClassHigh
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassLow:
		return "low"
	case ClassMedium:
		return "medium"
	case ClassHigh:
		return "high"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Config parameterizes workload synthesis. The zero value is unusable;
// start from DefaultConfig.
type Config struct {
	// Servers is N, the number of CDN servers issuing requests.
	Servers int
	// LowSites, MediumSites, HighSites partition the M sites into
	// popularity classes.
	LowSites, MediumSites, HighSites int
	// LowWeight, MediumWeight, HighWeight are the relative total
	// request volumes of the classes.
	LowWeight, MediumWeight, HighWeight float64
	// ObjectsPerSite is L, the catalog size of every site.
	ObjectsPerSite int
	// Theta is the Zipf-like parameter of intra-site object popularity.
	Theta float64
	// Lambda is the fraction of requests returning uncacheable or
	// stale documents (§3.3 / §5.2 second experiment).
	Lambda float64
	// Size model: lognormal body (SURGE defaults µ=9.357, σ=1.318)
	// with a bounded-Pareto tail (k=133 kB, α=1.1) used for TailProb
	// of the objects.
	BodyMu, BodySigma       float64
	TailK, TailH, TailAlpha float64
	TailProb                float64
	// SpreadSigmaFactor scales the per-server popularity spread:
	// σ = SpreadSigmaFactor/N. The paper uses 1/4 (σ = 1/4N).
	SpreadSigmaFactor float64
	// LocalityProb adds SURGE-style temporal locality beyond the
	// independent reference model: with this probability a request
	// repeats an object recently requested at the same server instead
	// of drawing fresh. 0 (the paper's implicit IRM assumption)
	// disables it.
	LocalityProb float64
}

// localityDepth is the per-server recency buffer size the
// LocalityProb repeats draw from.
const localityDepth = 256

// DefaultConfig returns the paper's §5.1 parameters.
func DefaultConfig() Config {
	return Config{
		Servers:           50,
		LowSites:          5,
		MediumSites:       10,
		HighSites:         5,
		LowWeight:         1,
		MediumWeight:      4,
		HighWeight:        16,
		ObjectsPerSite:    2000,
		Theta:             1.0,
		Lambda:            0,
		BodyMu:            9.357,
		BodySigma:         1.318,
		TailK:             133000,
		TailH:             50e6,
		TailAlpha:         1.1,
		TailProb:          0.07,
		SpreadSigmaFactor: 0.25,
	}
}

// Sites returns M.
func (c Config) Sites() int { return c.LowSites + c.MediumSites + c.HighSites }

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Servers < 1:
		return fmt.Errorf("workload: Servers = %d", c.Servers)
	case c.Sites() < 1:
		return fmt.Errorf("workload: no sites configured")
	case c.LowSites < 0 || c.MediumSites < 0 || c.HighSites < 0:
		return fmt.Errorf("workload: negative site class count")
	case c.LowWeight < 0 || c.MediumWeight < 0 || c.HighWeight < 0:
		return fmt.Errorf("workload: negative class weight")
	case c.ObjectsPerSite < 1:
		return fmt.Errorf("workload: ObjectsPerSite = %d", c.ObjectsPerSite)
	case c.Theta < 0:
		return fmt.Errorf("workload: Theta = %v", c.Theta)
	case c.Lambda < 0 || c.Lambda > 1:
		return fmt.Errorf("workload: Lambda = %v", c.Lambda)
	case c.TailProb < 0 || c.TailProb > 1:
		return fmt.Errorf("workload: TailProb = %v", c.TailProb)
	case c.TailProb > 0 && (c.TailK <= 0 || c.TailH <= c.TailK || c.TailAlpha <= 0):
		return fmt.Errorf("workload: invalid Pareto tail (k=%v h=%v alpha=%v)", c.TailK, c.TailH, c.TailAlpha)
	case c.TailProb < 1 && c.BodySigma < 0:
		return fmt.Errorf("workload: BodySigma = %v", c.BodySigma)
	case c.SpreadSigmaFactor < 0:
		return fmt.Errorf("workload: SpreadSigmaFactor = %v", c.SpreadSigmaFactor)
	case c.LocalityProb < 0 || c.LocalityProb > 1:
		return fmt.Errorf("workload: LocalityProb = %v", c.LocalityProb)
	}
	return nil
}

// Site is one hosted web site's synthetic catalog.
type Site struct {
	ID      int
	Class   Class
	Weight  float64 // share of total request volume across all servers
	Zipf    *stats.Zipf
	Objects []int64 // byte size by popularity rank; Objects[k-1] = size of rank k
	Bytes   int64   // Σ Objects
}

// Spec converts the site to the analytical model's terms.
func (s *Site) Spec(lambda float64) lrumodel.SiteSpec {
	return lrumodel.SiteSpec{Objects: len(s.Objects), Theta: s.Zipf.Theta, Lambda: lambda}
}

// Workload is the fully synthesized input of one experiment run.
type Workload struct {
	Cfg   Config
	Sites []*Site
	// Demand[i][j] is r_j^(i): the request rate of server i for site
	// j, normalized so that ΣΣ Demand = 1.
	Demand [][]float64
	// TotalBytes is Σ_j o_j, the cumulative size of all sites; server
	// capacity is specified as a percentage of this (§5.1).
	TotalBytes int64
	// AvgObjectBytes is ō, the average object size over all sites.
	AvgObjectBytes float64
}

// Generate synthesizes a workload from cfg using stream r. The same
// (cfg, seed) pair always yields the identical workload.
func Generate(cfg Config, r *xrand.Source) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Workload{Cfg: cfg}
	sizeRand := r.Split("sizes")
	demandRand := r.Split("demand")

	// Class weights normalized over sites.
	classOf := make([]Class, 0, cfg.Sites())
	for i := 0; i < cfg.LowSites; i++ {
		classOf = append(classOf, ClassLow)
	}
	for i := 0; i < cfg.MediumSites; i++ {
		classOf = append(classOf, ClassMedium)
	}
	for i := 0; i < cfg.HighSites; i++ {
		classOf = append(classOf, ClassHigh)
	}
	// Shuffle class assignment so site id does not encode class.
	r.Split("classes").Shuffle(len(classOf), func(i, j int) {
		classOf[i], classOf[j] = classOf[j], classOf[i]
	})

	body := stats.Lognormal{Mu: cfg.BodyMu, Sigma: cfg.BodySigma}
	tail := stats.BoundedPareto{K: cfg.TailK, H: cfg.TailH, Alpha: cfg.TailAlpha}
	zipf := stats.NewZipf(cfg.ObjectsPerSite, cfg.Theta)

	totalWeight := 0.0
	var totalBytes int64
	totalObjects := 0
	for id := 0; id < cfg.Sites(); id++ {
		s := &Site{ID: id, Class: classOf[id], Zipf: zipf}
		switch s.Class {
		case ClassLow:
			s.Weight = cfg.LowWeight
		case ClassMedium:
			s.Weight = cfg.MediumWeight
		case ClassHigh:
			s.Weight = cfg.HighWeight
		}
		s.Objects = make([]int64, cfg.ObjectsPerSite)
		for k := range s.Objects {
			var sz float64
			if sizeRand.Float64() < cfg.TailProb {
				sz = tail.Sample(sizeRand)
			} else {
				sz = body.Sample(sizeRand)
			}
			if sz < 1 {
				sz = 1
			}
			s.Objects[k] = int64(sz)
			s.Bytes += s.Objects[k]
		}
		totalWeight += s.Weight
		totalBytes += s.Bytes
		totalObjects += len(s.Objects)
		w.Sites = append(w.Sites, s)
	}
	for _, s := range w.Sites {
		s.Weight /= totalWeight
	}
	w.TotalBytes = totalBytes
	w.AvgObjectBytes = float64(totalBytes) / float64(totalObjects)

	// Per-server spread: the fraction of site j's requests issued by
	// server i is truncated-normal(1/N, σ) and renormalized to sum 1.
	tn := stats.TruncNormal{
		Mean:  1 / float64(cfg.Servers),
		Sigma: cfg.SpreadSigmaFactor / float64(cfg.Servers),
	}
	w.Demand = make([][]float64, cfg.Servers)
	for i := range w.Demand {
		w.Demand[i] = make([]float64, cfg.Sites())
	}
	for j := range w.Sites {
		col := make([]float64, cfg.Servers)
		sum := 0.0
		for i := range col {
			v := tn.Sample(demandRand)
			if v < 0 {
				v = 0
			}
			col[i] = v
			sum += v
		}
		for i := range col {
			w.Demand[i][j] = w.Sites[j].Weight * col[i] / sum
		}
	}
	return w, nil
}

// MustGenerate is Generate that panics on configuration errors; for tests
// and examples with known-good configs.
func MustGenerate(cfg Config, r *xrand.Source) *Workload {
	w, err := Generate(cfg, r)
	if err != nil {
		panic(err)
	}
	return w
}

// Specs returns the analytical-model specs of all sites with the
// workload's λ.
func (w *Workload) Specs() []lrumodel.SiteSpec {
	specs := make([]lrumodel.SiteSpec, len(w.Sites))
	for j, s := range w.Sites {
		specs[j] = s.Spec(w.Cfg.Lambda)
	}
	return specs
}

// SiteBytes returns o_j for every site.
func (w *Workload) SiteBytes() []int64 {
	out := make([]int64, len(w.Sites))
	for j, s := range w.Sites {
		out[j] = s.Bytes
	}
	return out
}

// Request is one synthetic HTTP request as seen by the CDN: issued by the
// client population behind Server, for object Object (1-based popularity
// rank) of site Site. Cacheable is false for the λ fraction of requests
// that return uncacheable or stale documents.
//
// Generation and Perished only vary under a dynamic catalog (see
// DynamicStream): Generation counts how many times the site slot has
// been republished with fresh content, and Perished marks the residual
// stale-link traffic that keeps arriving after the slot's current
// content has been withdrawn. The static Stream always emits generation
// 0, live — the zero values.
type Request struct {
	Server    int
	Site      int
	Object    int
	Cacheable bool
	// Generation is the catalog generation of the site's content this
	// request asks for; replicas placed for an older generation cannot
	// serve it.
	Generation int
	// Perished marks a request for content that has been withdrawn from
	// the catalog (a stale link): only the origin can answer it, with a
	// 404-equivalent response.
	Perished bool
}

// Size returns the object's byte size.
func (w *Workload) Size(site, object int) int64 {
	return w.Sites[site].Objects[object-1]
}

// Stream draws an endless i.i.d. request sequence from the workload's
// demand matrix (the independent reference model that both the analytical
// model and the paper's simulation assume).
type Stream struct {
	w    *Workload
	r    *xrand.Source
	cdf  []float64 // flattened server×site CDF
	cols int
	// guide narrows the inverse-CDF search over cdf to a few entries.
	guide stats.Guide
	// recent[i] is server i's ring buffer of recent (site, object)
	// pairs for temporal-locality repeats; nil when LocalityProb = 0.
	recent  [][]recentRef
	nextIdx []int
}

type recentRef struct{ site, object int }

// NewStream creates a request stream over w driven by r.
func NewStream(w *Workload, r *xrand.Source) *Stream {
	s := &Stream{w: w, r: r, cols: len(w.Sites)}
	if w.Cfg.LocalityProb > 0 {
		s.recent = make([][]recentRef, w.Cfg.Servers)
		s.nextIdx = make([]int, w.Cfg.Servers)
		for i := range s.recent {
			s.recent[i] = make([]recentRef, 0, localityDepth)
		}
	}
	s.cdf = make([]float64, w.Cfg.Servers*len(w.Sites))
	cum := 0.0
	idx := 0
	for i := 0; i < w.Cfg.Servers; i++ {
		for j := 0; j < len(w.Sites); j++ {
			cum += w.Demand[i][j]
			s.cdf[idx] = cum
			idx++
		}
	}
	// Normalize drift: demand sums to 1 by construction, but guard the
	// binary search anyway.
	s.cdf[len(s.cdf)-1] = 1
	s.guide.Build(s.cdf, 1)
	return s
}

// Next draws the next request.
func (s *Stream) Next() Request {
	u := s.r.Float64()
	idx := s.guide.Search(u)
	if idx >= len(s.cdf) {
		idx = len(s.cdf) - 1
	}
	server := idx / s.cols
	site := idx % s.cols
	object := s.w.Sites[site].Zipf.Sample(s.r)

	// Temporal locality: with probability LocalityProb, repeat a
	// recent request of the same server instead of the fresh draw.
	if s.recent != nil {
		if buf := s.recent[server]; len(buf) > 0 && s.r.Float64() < s.w.Cfg.LocalityProb {
			ref := buf[s.r.Intn(len(buf))]
			site, object = ref.site, ref.object
		}
		s.remember(server, site, object)
	}
	return Request{
		Server:    server,
		Site:      site,
		Object:    object,
		Cacheable: s.r.Float64() >= s.w.Cfg.Lambda,
	}
}

// remember records (site, object) in server's recency ring.
func (s *Stream) remember(server, site, object int) {
	buf := s.recent[server]
	if len(buf) < cap(buf) {
		s.recent[server] = append(buf, recentRef{site, object})
		return
	}
	buf[s.nextIdx[server]] = recentRef{site, object}
	s.nextIdx[server] = (s.nextIdx[server] + 1) % cap(buf)
}
