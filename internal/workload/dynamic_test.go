package workload

import (
	"testing"

	"repro/internal/xrand"
)

// churningConfig enables every dynamic feature at rates that exercise
// them within a short draw budget.
func churningConfig() DynamicConfig {
	return DynamicConfig{
		PublishRate:        0.004,
		PerishRate:         0.0005,
		FlashCrowdBoost:    8,
		FlashCrowdRequests: 2000,
		SegmentChainProb:   0.5,
		ChainLength:        6,
	}
}

func TestDynamicConfigValidate(t *testing.T) {
	mutations := []func(*DynamicConfig){
		func(c *DynamicConfig) { c.PublishRate = -1 },
		func(c *DynamicConfig) { c.PerishRate = -0.1 },
		func(c *DynamicConfig) { c.FlashCrowdRequests = -1 },
		func(c *DynamicConfig) { c.SegmentChainProb = 2 },
		func(c *DynamicConfig) { c.ChainLength = -3 },
	}
	w := MustGenerate(smallConfig(), xrand.New(1))
	for i, m := range mutations {
		cfg := churningConfig()
		m(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewDynamicStream(w, cfg, xrand.New(1)); err == nil {
			t.Errorf("mutation %d: NewDynamicStream accepted invalid config", i)
		}
	}
}

func TestDynamicRejectsLocality(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalityProb = 0.3
	w := MustGenerate(cfg, xrand.New(1))
	if _, err := NewDynamicStream(w, churningConfig(), xrand.New(1)); err == nil {
		t.Fatal("dynamic stream accepted LocalityProb > 0")
	}
	// A zero (static) dynamic config delegates to the static stream and
	// must keep working with locality on.
	if _, err := NewDynamicStream(w, DynamicConfig{}, xrand.New(1)); err != nil {
		t.Fatalf("static delegate rejected locality workload: %v", err)
	}
}

// TestZeroChurnByteIdentical pins the tentpole invariant: a
// DynamicStream with the zero config emits exactly the static Stream's
// request sequence, field for field — the dynamic machinery costs
// nothing (not even an RNG draw) until a feature is enabled.
func TestZeroChurnByteIdentical(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	static := NewStream(w, xrand.New(42))
	dyn := MustNewDynamicStream(w, DynamicConfig{}, xrand.New(42))
	for k := 0; k < 200000; k++ {
		a, b := static.Next(), dyn.Next()
		if a != b {
			t.Fatalf("draw %d: static %+v != dynamic %+v", k, a, b)
		}
		if b.Generation != 0 || b.Perished {
			t.Fatalf("draw %d: zero-churn stream emitted generation %d, perished %v",
				k, b.Generation, b.Perished)
		}
	}
}

func TestDynamicDeterministicPerSeed(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	a := MustNewDynamicStream(w, churningConfig(), xrand.New(7))
	b := MustNewDynamicStream(w, churningConfig(), xrand.New(7))
	c := MustNewDynamicStream(w, churningConfig(), xrand.New(8))
	diverged := false
	for k := 0; k < 100000; k++ {
		ra, rb, rc := a.Next(), b.Next(), c.Next()
		if ra != rb {
			t.Fatalf("draw %d: same seed diverged: %+v != %+v", k, ra, rb)
		}
		if ra != rc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical traces")
	}
	if a.Publishes() != b.Publishes() || a.Perishes() != b.Perishes() {
		t.Fatalf("same seed, different churn: %d/%d vs %d/%d",
			a.Publishes(), a.Perishes(), b.Publishes(), b.Perishes())
	}
}

func TestDynamicChurnAdvancesGenerations(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	s := MustNewDynamicStream(w, churningConfig(), xrand.New(7))
	var perishedReqs, freshGen int
	for k := 0; k < 200000; k++ {
		req := s.Next()
		if req.Perished {
			perishedReqs++
		}
		if req.Generation > 0 {
			freshGen++
		}
		if req.Site < 0 || req.Site >= len(w.Sites) {
			t.Fatalf("draw %d: site %d out of range", k, req.Site)
		}
		if req.Object < 1 || req.Object > len(w.Sites[req.Site].Objects) {
			t.Fatalf("draw %d: object %d out of range", k, req.Object)
		}
	}
	if s.Publishes() == 0 || s.Perishes() == 0 {
		t.Fatalf("no churn after 200k draws: %d publishes, %d perishes",
			s.Publishes(), s.Perishes())
	}
	if perishedReqs == 0 {
		t.Fatal("no stale-link (perished) requests despite DefaultPerishedWeight > 0")
	}
	if freshGen == 0 {
		t.Fatal("no requests for republished generations")
	}
	maxGen := 0
	for j := range w.Sites {
		if g := s.Generation(j); g > maxGen {
			maxGen = g
		}
	}
	if maxGen == 0 {
		t.Fatal("every slot still at generation 0 after sustained churn")
	}
}

// TestDynamicPerishedMatchesLiveness checks the per-request flags agree
// with the stream's own slot state: a request flagged Perished must come
// from a dead slot at the generation it carries.
func TestDynamicPerishedMatchesLiveness(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	cfg := DynamicConfig{PublishRate: 0.004, PerishRate: 0.0005}
	s := MustNewDynamicStream(w, cfg, xrand.New(9))
	for k := 0; k < 100000; k++ {
		req := s.Next()
		cur, live := s.Generation(req.Site), s.Live(req.Site)
		if req.Generation > cur {
			t.Fatalf("draw %d: request generation %d ahead of slot generation %d",
				k, req.Generation, cur)
		}
		if req.Generation == cur && req.Perished == live {
			t.Fatalf("draw %d: current-generation request Perished=%v but slot live=%v",
				k, req.Perished, live)
		}
	}
}

// TestDynamicChainsRunConsecutively verifies segment-chain sessions:
// once a chain site is drawn at some server, that server's next
// requests walk consecutive objects of the same site.
func TestDynamicChainsRunConsecutively(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	cfg := DynamicConfig{
		PublishRate:      0.01,
		PerishRate:       0.001,
		SegmentChainProb: 1, // every published site is a chain
		ChainLength:      4,
	}
	s := MustNewDynamicStream(w, cfg, xrand.New(5))
	type last struct {
		site, object int
	}
	prev := map[int]last{}
	consecutive := 0
	for k := 0; k < 100000; k++ {
		req := s.Next()
		if p, ok := prev[req.Server]; ok &&
			req.Site == p.site && req.Object == p.object%len(w.Sites[p.site].Objects)+1 {
			consecutive++
		}
		prev[req.Server] = last{req.Site, req.Object}
	}
	if consecutive < 1000 {
		t.Fatalf("only %d consecutive-segment pairs in 100k draws; chains not running", consecutive)
	}
}

func BenchmarkDynamicStreamNext(b *testing.B) {
	w := MustGenerate(smallConfig(), xrand.New(3))
	s := MustNewDynamicStream(w, churningConfig(), xrand.New(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}
