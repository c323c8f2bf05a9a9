package scenario

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// SmallConfig is a fast, fully wired configuration shared by the scenario
// and simulator tests: 22-node topology, 8 servers, 8 sites.
func SmallConfig() Config {
	w := workload.DefaultConfig()
	w.Servers = 8
	w.LowSites, w.MediumSites, w.HighSites = 2, 4, 2
	w.ObjectsPerSite = 100
	return Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   2,
			StubNodesPerStub:      5,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.15,
		Seed:         1,
	}
}

func TestDefaultBuilds(t *testing.T) {
	sc := MustBuild(Default())
	if sc.Sys.N() != 50 || sc.Sys.M() != 20 {
		t.Fatalf("N=%d M=%d, want 50/20", sc.Sys.N(), sc.Sys.M())
	}
	if got := sc.Topo.G.N(); got < 500 {
		t.Fatalf("topology has %d nodes, want ~560", got)
	}
}

func TestBuildSmall(t *testing.T) {
	cfg := SmallConfig()
	sc := MustBuild(cfg)
	if err := sc.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.ServerNodes) != 8 || len(sc.OriginNodes) != 8 {
		t.Fatalf("placed %d servers, %d origins", len(sc.ServerNodes), len(sc.OriginNodes))
	}
	// Server and origin nodes must be distinct stub nodes.
	seen := map[int]bool{}
	for _, n := range append(append([]int{}, sc.ServerNodes...), sc.OriginNodes...) {
		if seen[n] {
			t.Fatalf("node %d reused", n)
		}
		if sc.Topo.StubOf[n] < 0 {
			t.Fatalf("node %d is not in a stub domain", n)
		}
		seen[n] = true
	}
}

func TestCapacityFraction(t *testing.T) {
	cfg := SmallConfig()
	sc := MustBuild(cfg)
	want := int64(cfg.CapacityFrac * float64(sc.Work.TotalBytes))
	for i, c := range sc.Sys.Capacity {
		if c != want {
			t.Fatalf("server %d capacity %d, want homogeneous %d", i, c, want)
		}
	}
}

func TestCostsAreGraphDistances(t *testing.T) {
	sc := MustBuild(SmallConfig())
	// Spot-check: recompute server 0's row with one search of its own.
	d0 := sc.Topo.G.ShortestPathsFrom([]int{sc.ServerNodes[0]})[0]
	for k, node := range sc.ServerNodes {
		if sc.Sys.CostServer[0][k] != d0[node] {
			t.Fatalf("CostServer[0][%d] = %v, BFS %v", k, sc.Sys.CostServer[0][k], d0[node])
		}
	}
	for j, node := range sc.OriginNodes {
		if sc.Sys.CostOrigin[0][j] != d0[node] {
			t.Fatalf("CostOrigin[0][%d] = %v, BFS %v", j, sc.Sys.CostOrigin[0][j], d0[node])
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := MustBuild(SmallConfig())
	b := MustBuild(SmallConfig())
	for i := range a.Sys.CostServer {
		for k := range a.Sys.CostServer[i] {
			if a.Sys.CostServer[i][k] != b.Sys.CostServer[i][k] {
				t.Fatal("cost matrices differ across identical builds")
			}
		}
	}
	if a.Work.TotalBytes != b.Work.TotalBytes {
		t.Fatal("workloads differ across identical builds")
	}
	cfg := SmallConfig()
	cfg.Seed = 2
	c := MustBuild(cfg)
	same := true
	for i := range a.ServerNodes {
		if a.ServerNodes[i] != c.ServerNodes[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical server placement (suspicious)")
	}
}

func TestHeterogeneousCapacity(t *testing.T) {
	cfg := SmallConfig()
	cfg.CapacitySpread = 0.8
	sc := MustBuild(cfg)
	base := int64(cfg.CapacityFrac * float64(sc.Work.TotalBytes))
	var total int64
	varied := false
	for _, c := range sc.Sys.Capacity {
		if c < 0 {
			t.Fatalf("negative capacity %d", c)
		}
		if c != sc.Sys.Capacity[0] {
			varied = true
		}
		total += c
	}
	if !varied {
		t.Fatal("spread > 0 produced homogeneous capacities")
	}
	// Aggregate capacity is preserved within rounding.
	want := base * int64(len(sc.Sys.Capacity))
	if diff := total - want; diff < -int64(len(sc.Sys.Capacity)) || diff > int64(len(sc.Sys.Capacity)) {
		t.Fatalf("total capacity %d, want ~%d", total, want)
	}
	// Spread 0 stays homogeneous.
	cfg.CapacitySpread = 0
	sc0 := MustBuild(cfg)
	for _, c := range sc0.Sys.Capacity {
		if c != sc0.Sys.Capacity[0] {
			t.Fatal("spread 0 produced heterogeneous capacities")
		}
	}
	cfg.CapacitySpread = -1
	if _, err := Build(cfg); err == nil {
		t.Fatal("negative spread accepted")
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	cfg := SmallConfig()
	cfg.CapacityFrac = -0.1
	if _, err := Build(cfg); err == nil {
		t.Fatal("negative capacity fraction accepted")
	}
	cfg = SmallConfig()
	cfg.Workload.Servers = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("invalid workload accepted")
	}
	cfg = SmallConfig()
	cfg.Topology.TransitDomains = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestStream(t *testing.T) {
	sc := MustBuild(SmallConfig())
	s := sc.Stream(xrand.New(3))
	for i := 0; i < 1000; i++ {
		req := s.Next()
		if req.Server < 0 || req.Server >= sc.Sys.N() || req.Site < 0 || req.Site >= sc.Sys.M() {
			t.Fatalf("out-of-range request %+v", req)
		}
	}
}

func TestScale(t *testing.T) {
	base := Default()
	if got := Scale(base, 1); got != base {
		t.Fatalf("Scale ×1 changed the config: %+v", got)
	}
	s4 := Scale(base, 4)
	if s4.Topology.TransitDomains != 4*base.Topology.TransitDomains {
		t.Fatalf("transit domains %d, want ×4", s4.Topology.TransitDomains)
	}
	if s4.Workload.Servers != 4*base.Workload.Servers || s4.Workload.Sites() != 4*base.Workload.Sites() {
		t.Fatalf("workload not ×4: %+v", s4.Workload)
	}
	if s4.CapacityFrac != base.CapacityFrac/4 {
		t.Fatalf("capacity frac %v, want %v", s4.CapacityFrac, base.CapacityFrac/4)
	}
	if err := s4.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	// Per-server capacity stays constant in site-equivalents: total
	// bytes grow ~×4 while the fraction shrinks ×4.
	sc := MustBuild(s4)
	if n := sc.Sys.N(); n != 200 {
		t.Fatalf("built %d servers, want 200", n)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Scale(cfg, 0) did not panic")
		}
	}()
	Scale(base, 0)
}
