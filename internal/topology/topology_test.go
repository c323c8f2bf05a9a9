package topology

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestDefaultConfigScale(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper uses ~560 nodes; the default must be within 10% of that.
	n := cfg.TotalNodes()
	if n < 504 || n > 616 {
		t.Fatalf("default config has %d nodes, want ~560", n)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.TransitDomains = 0 },
		func(c *Config) { c.TransitNodesPerDomain = 0 },
		func(c *Config) { c.StubsPerTransitNode = 0 },
		func(c *Config) { c.StubNodesPerStub = -1 },
		func(c *Config) { c.ExtraEdgeProb = -0.1 },
		func(c *Config) { c.ExtraEdgeProb = 1.1 },
		func(c *Config) { c.ExtraTransitEdges = -1 },
	}
	for i, m := range mutations {
		c := base
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := DefaultConfig()
	r := xrand.New(1)
	topo := Generate(cfg, r)

	if got := topo.G.N(); got != cfg.TotalNodes() {
		t.Fatalf("graph has %d nodes, want %d", got, cfg.TotalNodes())
	}
	wantTransit := cfg.TransitDomains * cfg.TransitNodesPerDomain
	if len(topo.TransitNodes) != wantTransit {
		t.Fatalf("%d transit nodes, want %d", len(topo.TransitNodes), wantTransit)
	}
	wantStubs := wantTransit * cfg.StubsPerTransitNode
	if len(topo.StubDomains) != wantStubs {
		t.Fatalf("%d stub domains, want %d", len(topo.StubDomains), wantStubs)
	}
	for si, stub := range topo.StubDomains {
		if len(stub) != cfg.StubNodesPerStub {
			t.Fatalf("stub %d has %d nodes, want %d", si, len(stub), cfg.StubNodesPerStub)
		}
		for _, node := range stub {
			if topo.StubOf[node] != si {
				t.Fatalf("StubOf[%d] = %d, want %d", node, topo.StubOf[node], si)
			}
		}
	}
	for _, tn := range topo.TransitNodes {
		if topo.StubOf[tn] != -1 {
			t.Fatalf("transit node %d has StubOf %d", tn, topo.StubOf[tn])
		}
	}
}

func TestGenerateConnected(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		topo := Generate(DefaultConfig(), xrand.New(seed))
		if !topo.G.Connected() {
			t.Fatalf("seed %d: topology disconnected", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(), xrand.New(5))
	b := Generate(DefaultConfig(), xrand.New(5))
	if a.G.M() != b.G.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.G.M(), b.G.M())
	}
	for u := 0; u < a.G.N(); u++ {
		for _, v := range a.G.Neighbors(u) {
			if !b.G.HasEdge(u, v) {
				t.Fatalf("edge {%d,%d} present only in first run", u, v)
			}
		}
	}
}

func TestDiameterReasonable(t *testing.T) {
	topo := Generate(DefaultConfig(), xrand.New(2))
	d := topo.G.Diameter()
	if math.IsInf(d, 1) {
		t.Fatal("disconnected")
	}
	// Transit-stub graphs are shallow: stub -> transit -> transit ->
	// transit -> stub plus intra-domain hops. Anything above ~25 hops
	// means the hierarchy was wired wrong.
	if d < 3 || d > 25 {
		t.Fatalf("diameter %v outside plausible transit-stub range", d)
	}
}

func TestSmallestConfig(t *testing.T) {
	cfg := Config{
		TransitDomains:        1,
		TransitNodesPerDomain: 1,
		StubsPerTransitNode:   1,
		StubNodesPerStub:      1,
	}
	topo := Generate(cfg, xrand.New(3))
	if topo.G.N() != 2 {
		t.Fatalf("N=%d, want 2", topo.G.N())
	}
	if !topo.G.Connected() {
		t.Fatal("two-node topology disconnected")
	}
}

func TestPlaceInStubsDistinctDomains(t *testing.T) {
	topo := Generate(DefaultConfig(), xrand.New(7))
	r := xrand.New(8)
	n := len(topo.StubDomains) // exactly one per domain
	nodes, err := topo.PlaceInStubs(n, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != n {
		t.Fatalf("placed %d, want %d", len(nodes), n)
	}
	seenDomain := make(map[int]bool)
	seenNode := make(map[int]bool)
	for _, node := range nodes {
		d := topo.StubOf[node]
		if d < 0 {
			t.Fatalf("node %d is not a stub node", node)
		}
		if seenDomain[d] {
			t.Fatalf("domain %d used twice with n <= #domains", d)
		}
		if seenNode[node] {
			t.Fatalf("node %d placed twice", node)
		}
		seenDomain[d] = true
		seenNode[node] = true
	}
}

func TestPlaceInStubsWrapsAround(t *testing.T) {
	cfg := Config{
		TransitDomains:        1,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   2,
		StubNodesPerStub:      3,
	}
	topo := Generate(cfg, xrand.New(9))
	// 4 stub domains x 3 nodes = 12 stub nodes; request more than the
	// number of domains so wrap-around kicks in.
	nodes, err := topo.PlaceInStubs(10, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("node %d reused", n)
		}
		seen[n] = true
	}
}

// TestPlaceInStubsRejectsOverfull: more nodes than stub slots is an
// error, not a panic — cdnd reaches it from a flag (-edges).
func TestPlaceInStubsRejectsOverfull(t *testing.T) {
	cfg := Config{
		TransitDomains:        1,
		TransitNodesPerDomain: 1,
		StubsPerTransitNode:   1,
		StubNodesPerStub:      2,
	}
	topo := Generate(cfg, xrand.New(11))
	if nodes, err := topo.PlaceInStubs(2, xrand.New(12)); err != nil || len(nodes) != 2 {
		t.Fatalf("2 nodes in 2 slots: %v, %v", nodes, err)
	}
	nodes, err := topo.PlaceInStubs(3, xrand.New(12))
	if want := "topology: cannot place 3 nodes in 2 stub slots"; err == nil || err.Error() != want {
		t.Fatalf("3 nodes in 2 slots: %v, %v; want error %q", nodes, err, want)
	}
}

func TestGenerateConnectedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		cfg := Config{
			TransitDomains:        1 + r.Intn(4),
			TransitNodesPerDomain: 1 + r.Intn(4),
			StubsPerTransitNode:   1 + r.Intn(3),
			StubNodesPerStub:      1 + r.Intn(8),
			ExtraEdgeProb:         r.Float64() * 0.5,
			ExtraTransitEdges:     r.Intn(5),
		}
		topo := Generate(cfg, r)
		return topo.G.Connected() && topo.G.N() == cfg.TotalNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateDefault(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		Generate(cfg, xrand.New(uint64(i)))
	}
}
