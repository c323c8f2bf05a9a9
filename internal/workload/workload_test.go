package workload

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// smallConfig keeps tests fast: 8 servers, 8 sites, 100 objects each.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Servers = 8
	cfg.LowSites, cfg.MediumSites, cfg.HighSites = 2, 4, 2
	cfg.ObjectsPerSite = 100
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if got := DefaultConfig().Sites(); got != 20 {
		t.Fatalf("default M = %d, want 20 (5 low + 10 medium + 5 high)", got)
	}
	if DefaultConfig().Servers != 50 {
		t.Fatal("default N != 50")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.LowSites, c.MediumSites, c.HighSites = 0, 0, 0 },
		func(c *Config) { c.MediumSites = -1 },
		func(c *Config) { c.HighWeight = -2 },
		func(c *Config) { c.ObjectsPerSite = 0 },
		func(c *Config) { c.Theta = -0.5 },
		func(c *Config) { c.Lambda = 1.5 },
		func(c *Config) { c.TailProb = -0.1 },
		func(c *Config) { c.TailH = c.TailK - 1 },
		func(c *Config) { c.SpreadSigmaFactor = -1 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Generate(cfg, xrand.New(1)); err == nil {
			t.Errorf("mutation %d: Generate accepted invalid config", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := smallConfig()
	w := MustGenerate(cfg, xrand.New(1))
	if len(w.Sites) != cfg.Sites() {
		t.Fatalf("%d sites, want %d", len(w.Sites), cfg.Sites())
	}
	classes := map[Class]int{}
	var totalBytes int64
	for j, s := range w.Sites {
		if s.ID != j {
			t.Fatalf("site %d has ID %d", j, s.ID)
		}
		if len(s.Objects) != cfg.ObjectsPerSite {
			t.Fatalf("site %d has %d objects", j, len(s.Objects))
		}
		var sum int64
		for _, sz := range s.Objects {
			if sz < 1 {
				t.Fatalf("site %d has object of size %d", j, sz)
			}
			sum += sz
		}
		if sum != s.Bytes {
			t.Fatalf("site %d Bytes=%d, sum=%d", j, s.Bytes, sum)
		}
		totalBytes += sum
		classes[s.Class]++
	}
	if classes[ClassLow] != 2 || classes[ClassMedium] != 4 || classes[ClassHigh] != 2 {
		t.Fatalf("class mix %v", classes)
	}
	if w.TotalBytes != totalBytes {
		t.Fatalf("TotalBytes %d, want %d", w.TotalBytes, totalBytes)
	}
	wantAvg := float64(totalBytes) / float64(cfg.Sites()*cfg.ObjectsPerSite)
	if math.Abs(w.AvgObjectBytes-wantAvg) > 1e-9 {
		t.Fatalf("AvgObjectBytes %v, want %v", w.AvgObjectBytes, wantAvg)
	}
}

func TestDemandNormalized(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(2))
	total := 0.0
	for i := range w.Demand {
		for j := range w.Demand[i] {
			if w.Demand[i][j] < 0 {
				t.Fatalf("negative demand at (%d,%d)", i, j)
			}
			total += w.Demand[i][j]
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("demand sums to %v, want 1", total)
	}
}

func TestDemandRespectsSiteWeights(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	for j, s := range w.Sites {
		col := 0.0
		for i := range w.Demand {
			col += w.Demand[i][j]
		}
		if math.Abs(col-s.Weight) > 1e-9 {
			t.Fatalf("site %d demand column %v, weight %v", j, col, s.Weight)
		}
	}
}

func TestHighClassOutweighsLow(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(4))
	var low, high float64
	for _, s := range w.Sites {
		switch s.Class {
		case ClassLow:
			low += s.Weight
		case ClassHigh:
			high += s.Weight
		}
	}
	if high <= low {
		t.Fatalf("high-class weight %v <= low-class %v", high, low)
	}
}

func TestDemandSpreadAcrossServers(t *testing.T) {
	// Per §5.1 each server's share of a site is ~N(1/N, 1/4N) truncated
	// to ±3σ, so shares must lie in [1/N - 3/4N, 1/N + 3/4N] before
	// renormalization — approximately [0.25/N, 1.75/N] after.
	cfg := smallConfig()
	w := MustGenerate(cfg, xrand.New(5))
	n := float64(cfg.Servers)
	for j, s := range w.Sites {
		for i := range w.Demand {
			share := w.Demand[i][j] / s.Weight
			if share < 0.1/n || share > 2.5/n {
				t.Fatalf("site %d server %d share %v implausible for N(1/N,1/4N)", j, i, share)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallConfig(), xrand.New(9))
	b := MustGenerate(smallConfig(), xrand.New(9))
	if a.TotalBytes != b.TotalBytes {
		t.Fatal("TotalBytes differs between identical seeds")
	}
	for i := range a.Demand {
		for j := range a.Demand[i] {
			if a.Demand[i][j] != b.Demand[i][j] {
				t.Fatalf("demand (%d,%d) differs", i, j)
			}
		}
	}
	c := MustGenerate(smallConfig(), xrand.New(10))
	if c.TotalBytes == a.TotalBytes {
		t.Fatal("different seeds produced identical catalogs (suspicious)")
	}
}

func TestSpecs(t *testing.T) {
	cfg := smallConfig()
	cfg.Lambda = 0.1
	w := MustGenerate(cfg, xrand.New(11))
	specs := w.Specs()
	if len(specs) != cfg.Sites() {
		t.Fatalf("%d specs", len(specs))
	}
	for _, s := range specs {
		if s.Objects != cfg.ObjectsPerSite || s.Theta != cfg.Theta || s.Lambda != 0.1 {
			t.Fatalf("bad spec %+v", s)
		}
	}
}

func TestSiteBytesAndSize(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(12))
	bytes := w.SiteBytes()
	for j, s := range w.Sites {
		if bytes[j] != s.Bytes {
			t.Fatalf("SiteBytes[%d] mismatch", j)
		}
	}
	if got := w.Size(0, 1); got != w.Sites[0].Objects[0] {
		t.Fatalf("Size(0,1) = %d", got)
	}
	if got := w.Size(2, 100); got != w.Sites[2].Objects[99] {
		t.Fatalf("Size(2,100) = %d", got)
	}
}

func TestStreamMatchesDemand(t *testing.T) {
	cfg := smallConfig()
	w := MustGenerate(cfg, xrand.New(13))
	s := NewStream(w, xrand.New(14))
	const n = 400000
	counts := make([][]float64, cfg.Servers)
	for i := range counts {
		counts[i] = make([]float64, cfg.Sites())
	}
	for i := 0; i < n; i++ {
		req := s.Next()
		if req.Server < 0 || req.Server >= cfg.Servers {
			t.Fatalf("server %d out of range", req.Server)
		}
		if req.Site < 0 || req.Site >= cfg.Sites() {
			t.Fatalf("site %d out of range", req.Site)
		}
		if req.Object < 1 || req.Object > cfg.ObjectsPerSite {
			t.Fatalf("object %d out of range", req.Object)
		}
		counts[req.Server][req.Site]++
	}
	for i := range counts {
		for j := range counts[i] {
			got := counts[i][j] / n
			want := w.Demand[i][j]
			tol := 5*math.Sqrt(want/n) + 1e-4
			if math.Abs(got-want) > tol {
				t.Errorf("demand (%d,%d): empirical %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestStreamZipfWithinSite(t *testing.T) {
	cfg := smallConfig()
	w := MustGenerate(cfg, xrand.New(15))
	s := NewStream(w, xrand.New(16))
	rank1, total := 0, 0
	for i := 0; i < 300000; i++ {
		req := s.Next()
		if req.Site == 0 {
			total++
			if req.Object == 1 {
				rank1++
			}
		}
	}
	if total == 0 {
		t.Fatal("site 0 never requested")
	}
	got := float64(rank1) / float64(total)
	want := w.Sites[0].Zipf.PMF(1)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("rank-1 frequency %v, want %v", got, want)
	}
}

func TestStreamLambda(t *testing.T) {
	cfg := smallConfig()
	cfg.Lambda = 0.25
	w := MustGenerate(cfg, xrand.New(17))
	s := NewStream(w, xrand.New(18))
	uncacheable := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if !s.Next().Cacheable {
			uncacheable++
		}
	}
	got := float64(uncacheable) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("uncacheable fraction %v, want 0.25", got)
	}
}

func TestStreamLambdaZeroAllCacheable(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(19))
	s := NewStream(w, xrand.New(20))
	for i := 0; i < 10000; i++ {
		if !s.Next().Cacheable {
			t.Fatal("uncacheable request with lambda = 0")
		}
	}
}

func TestValidateLocality(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalityProb = 1.5
	if cfg.Validate() == nil {
		t.Fatal("LocalityProb > 1 accepted")
	}
}

func TestLocalityIncreasesRepeats(t *testing.T) {
	count := func(prob float64, seed uint64) float64 {
		cfg := smallConfig()
		cfg.LocalityProb = prob
		w := MustGenerate(cfg, xrand.New(21))
		s := NewStream(w, xrand.New(seed))
		// Measure the per-server repeat rate within a window as deep as
		// the recency buffer the repeats draw from.
		const n = 100000
		window := make(map[int][]Request)
		repeats, total := 0, 0
		for i := 0; i < n; i++ {
			req := s.Next()
			recent := window[req.Server]
			for _, prev := range recent {
				if prev.Site == req.Site && prev.Object == req.Object {
					repeats++
					break
				}
			}
			total++
			recent = append(recent, req)
			if len(recent) > localityDepth {
				recent = recent[1:]
			}
			window[req.Server] = recent
		}
		return float64(repeats) / float64(total)
	}
	irm := count(0, 22)
	local := count(0.5, 22)
	// Zipf concentration alone produces repeats under IRM; the locality
	// knob must add clearly on top of that baseline.
	if local < irm+0.15 {
		t.Fatalf("locality did not raise repeat rate: IRM %.4f vs local %.4f", irm, local)
	}
}

func TestLocalityPreservesMarginals(t *testing.T) {
	// Repeats re-draw from the same server's recent requests, so the
	// per-server request share must remain close to the demand matrix.
	cfg := smallConfig()
	cfg.LocalityProb = 0.4
	w := MustGenerate(cfg, xrand.New(23))
	s := NewStream(w, xrand.New(24))
	const n = 200000
	perServer := make([]float64, cfg.Servers)
	for i := 0; i < n; i++ {
		perServer[s.Next().Server]++
	}
	for i := range perServer {
		want := 0.0
		for j := range w.Demand[i] {
			want += w.Demand[i][j]
		}
		got := perServer[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("server %d share %v, want %v", i, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassLow.String() != "low" || ClassMedium.String() != "medium" || ClassHigh.String() != "high" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Fatal("unknown class formatting wrong")
	}
}

func TestMustGeneratePanicsOnBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Servers = 0
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate did not panic")
		}
	}()
	MustGenerate(cfg, xrand.New(1))
}

func BenchmarkGenerateDefault(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		MustGenerate(cfg, xrand.New(uint64(i)))
	}
}

func BenchmarkStreamNext(b *testing.B) {
	w := MustGenerate(DefaultConfig(), xrand.New(1))
	s := NewStream(w, xrand.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
