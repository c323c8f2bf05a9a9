package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// testSystem builds a small hand-checkable system:
// 3 servers on a line (0-1-2, unit hops), 2 sites.
// Origins: site 0 at distance {4,3,2}, site 1 at distance {1,2,3}.
func testSystem() *System {
	return &System{
		CostServer: [][]float64{
			{0, 1, 2},
			{1, 0, 1},
			{2, 1, 0},
		},
		CostOrigin: [][]float64{
			{4, 1},
			{3, 2},
			{2, 3},
		},
		SiteBytes: []int64{100, 60},
		Capacity:  []int64{150, 150, 150},
		Demand: [][]float64{
			{0.2, 0.1},
			{0.1, 0.2},
			{0.2, 0.2},
		},
	}
}

func TestSystemValidate(t *testing.T) {
	if err := testSystem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemValidateRejects(t *testing.T) {
	mutations := []func(*System){
		func(s *System) { s.Capacity = nil },
		func(s *System) { s.SiteBytes = nil },
		func(s *System) { s.CostServer = s.CostServer[:2] },
		func(s *System) { s.CostServer[0] = s.CostServer[0][:2] },
		func(s *System) { s.CostOrigin[1] = s.CostOrigin[1][:1] },
		func(s *System) { s.Demand[2] = s.Demand[2][:1] },
		func(s *System) { s.CostServer[1][1] = 5 },
		func(s *System) { s.CostServer[0][1] = -1; s.CostServer[1][0] = -1 },
		func(s *System) { s.CostServer[0][1] = 9 }, // asymmetric
		func(s *System) { s.CostOrigin[0][0] = -2 },
		func(s *System) { s.Demand[0][0] = -0.1 },
		func(s *System) { s.Capacity[0] = -1 },
		func(s *System) { s.SiteBytes[0] = 0 },
	}
	for i, m := range mutations {
		s := testSystem()
		m(s)
		if s.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewPlacementInitialState(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	for i := 0; i < sys.N(); i++ {
		if p.Free(i) != sys.Capacity[i] {
			t.Fatalf("server %d free %d, want full capacity", i, p.Free(i))
		}
		for j := 0; j < sys.M(); j++ {
			if p.Has(i, j) {
				t.Fatalf("replica (%d,%d) in empty placement", i, j)
			}
			srv, cost := p.Nearest(i, j)
			if srv != Origin || cost != sys.CostOrigin[i][j] {
				t.Fatalf("SN(%d,%d) = (%d,%v), want origin", i, j, srv, cost)
			}
		}
	}
	if p.Replicas() != 0 {
		t.Fatal("fresh placement has replicas")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateUpdatesNearest(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	if err := p.Replicate(1, 0); err != nil {
		t.Fatal(err)
	}
	// Server 1 now serves site 0 locally.
	if srv, cost := p.Nearest(1, 0); srv != 1 || cost != 0 {
		t.Fatalf("SN(1,0) = (%d,%v), want (1,0)", srv, cost)
	}
	// Server 0: replica at 1 costs 1 < origin cost 4.
	if srv, cost := p.Nearest(0, 0); srv != 1 || cost != 1 {
		t.Fatalf("SN(0,0) = (%d,%v), want (1,1)", srv, cost)
	}
	// Server 2: replica at 1 costs 1 < origin cost 2.
	if srv, cost := p.Nearest(2, 0); srv != 1 || cost != 1 {
		t.Fatalf("SN(2,0) = (%d,%v), want (1,1)", srv, cost)
	}
	// Site 1 untouched.
	if srv, _ := p.Nearest(0, 1); srv != Origin {
		t.Fatal("SN for site 1 changed")
	}
	if p.Free(1) != 50 {
		t.Fatalf("free space %d, want 50", p.Free(1))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateKeepsCloserOrigin(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	// Site 1's origin is at distance 1 from server 0; a replica at
	// server 2 (distance 2) must not displace it.
	if err := p.Replicate(2, 1); err != nil {
		t.Fatal(err)
	}
	if srv, cost := p.Nearest(0, 1); srv != Origin || cost != 1 {
		t.Fatalf("SN(0,1) = (%d,%v), want origin at cost 1", srv, cost)
	}
}

func TestReplicateErrors(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	if err := p.Replicate(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Replicate(0, 0); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	// Server 0 has 50 bytes free; site 1 needs 60.
	if err := p.Replicate(0, 1); err == nil {
		t.Fatal("capacity violation accepted")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCanReplicate(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	if !p.CanReplicate(0, 0) {
		t.Fatal("feasible replica reported infeasible")
	}
	if err := p.Replicate(0, 0); err != nil {
		t.Fatal(err)
	}
	if p.CanReplicate(0, 0) {
		t.Fatal("existing replica reported feasible")
	}
	if p.CanReplicate(0, 1) {
		t.Fatal("oversized replica reported feasible")
	}
	if !p.CanReplicate(1, 1) {
		t.Fatal("feasible replica reported infeasible")
	}
}

func TestCostNoCaching(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	// D = Σ r_ij * C(i, SP_j) initially.
	want := 0.2*4 + 0.1*1 + 0.1*3 + 0.2*2 + 0.2*2 + 0.2*3
	if got := p.Cost(ZeroHitRatio); math.Abs(got-want) > 1e-12 {
		t.Fatalf("initial cost %v, want %v", got, want)
	}
	// Replicating site 0 at server 2 reroutes site-0 demand.
	if err := p.Replicate(2, 0); err != nil {
		t.Fatal(err)
	}
	want = 0.2*2 + 0.1*1 + 0.1*1 + 0.2*2 + 0 + 0.2*3
	if got := p.Cost(ZeroHitRatio); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost after replica %v, want %v", got, want)
	}
}

func TestCostWithHitRatio(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	// A 50% hit ratio everywhere halves the redirection cost.
	full := p.Cost(ZeroHitRatio)
	half := p.Cost(func(i, j int) float64 { return 0.5 })
	if math.Abs(half-full/2) > 1e-12 {
		t.Fatalf("half-hit cost %v, want %v", half, full/2)
	}
	// Perfect caching absorbs everything.
	if got := p.Cost(func(i, j int) float64 { return 1 }); got != 0 {
		t.Fatalf("perfect-cache cost %v, want 0", got)
	}
}

func TestCostMonotoneUnderReplication(t *testing.T) {
	// Adding replicas can never increase the no-cache cost.
	sys := testSystem()
	p := NewPlacement(sys)
	prev := p.Cost(ZeroHitRatio)
	order := []struct{ i, j int }{{0, 0}, {1, 1}, {2, 0}, {2, 1}}
	for _, step := range order {
		if !p.CanReplicate(step.i, step.j) {
			continue
		}
		if err := p.Replicate(step.i, step.j); err != nil {
			t.Fatal(err)
		}
		cur := p.Cost(ZeroHitRatio)
		if cur > prev+1e-12 {
			t.Fatalf("cost rose from %v to %v after replica %v", prev, cur, step)
		}
		prev = cur
	}
}

func TestClone(t *testing.T) {
	sys := testSystem()
	p := NewPlacement(sys)
	if err := p.Replicate(0, 0); err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	if err := q.Replicate(1, 1); err != nil {
		t.Fatal(err)
	}
	if p.Has(1, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if !q.Has(0, 0) {
		t.Fatal("clone lost existing replica")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q.Replicas() != 2 || p.Replicas() != 1 {
		t.Fatalf("replica counts %d/%d, want 2/1", q.Replicas(), p.Replicas())
	}
}

// TestRandomizedInvariants drives random feasible replications on random
// systems and checks invariants plus cost monotonicity throughout.
func TestRandomizedInvariants(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := xrand.New(seed)
		n, m := 4+r.Intn(8), 3+r.Intn(8)
		sys := randomSystem(r, n, m)
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		p := NewPlacement(sys)
		prev := p.Cost(ZeroHitRatio)
		for step := 0; step < 200; step++ {
			i, j := r.Intn(n), r.Intn(m)
			if !p.CanReplicate(i, j) {
				continue
			}
			if err := p.Replicate(i, j); err != nil {
				t.Fatal(err)
			}
			cur := p.Cost(ZeroHitRatio)
			if cur > prev+1e-9 {
				t.Fatalf("seed %d: cost increased %v -> %v", seed, prev, cur)
			}
			prev = cur
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// randomSystem builds a random valid system with metric-ish costs derived
// from random points on a line (guarantees symmetry and zero diagonal).
func randomSystem(r *xrand.Source, n, m int) *System {
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = r.Float64() * 10
	}
	sys := &System{
		CostServer: make([][]float64, n),
		CostOrigin: make([][]float64, n),
		Demand:     make([][]float64, n),
		SiteBytes:  make([]int64, m),
		Capacity:   make([]int64, n),
	}
	originPos := make([]float64, m)
	for j := range originPos {
		originPos[j] = r.Float64() * 10
		sys.SiteBytes[j] = int64(10 + r.Intn(90))
	}
	for i := 0; i < n; i++ {
		sys.CostServer[i] = make([]float64, n)
		sys.CostOrigin[i] = make([]float64, m)
		sys.Demand[i] = make([]float64, m)
		sys.Capacity[i] = int64(50 + r.Intn(200))
		for k := 0; k < n; k++ {
			sys.CostServer[i][k] = math.Abs(pos[i] - pos[k])
		}
		for j := 0; j < m; j++ {
			sys.CostOrigin[i][j] = math.Abs(pos[i]-originPos[j]) + 1
			sys.Demand[i][j] = r.Float64()
		}
	}
	return sys
}

func TestWithServersDown(t *testing.T) {
	s := testSystem()
	view, err := s.WithServersDown([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if view.Capacity[0] != 0 || view.Capacity[2] != 0 {
		t.Fatalf("down servers kept capacity: %v", view.Capacity)
	}
	if view.Capacity[1] != s.Capacity[1] {
		t.Fatalf("healthy server capacity changed: %d", view.Capacity[1])
	}
	// The original is untouched and the view shares everything else.
	if s.Capacity[0] != 150 {
		t.Fatalf("base system mutated: %v", s.Capacity)
	}
	if &view.Demand[0][0] != &s.Demand[0][0] {
		t.Fatal("demand not shared with the base system")
	}
	if err := view.Validate(); err != nil {
		t.Fatalf("down view does not validate: %v", err)
	}
	if _, err := s.WithServersDown([]bool{true}); err == nil {
		t.Fatal("wrong-length down vector accepted")
	}
}

// TestNearestIndependentOfReplicaOrder: on topologies full of cost ties
// (integer hops, co-located servers, origins as near as a replica), SN
// — server and cost — is NearestSource's from-scratch answer whatever
// order the same replica set was built in.
func TestNearestIndependentOfReplicaOrder(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		r := xrand.New(seed)
		n, m := 3+r.Intn(8), 1+r.Intn(5)
		sys := tiedSystem(r, n, m)
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		var set [][2]int
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if r.Intn(3) == 0 {
					set = append(set, [2]int{i, j})
				}
			}
		}
		var first *Placement
		for order := 0; order < 6; order++ {
			r.Shuffle(len(set), func(a, b int) { set[a], set[b] = set[b], set[a] })
			p := NewPlacement(sys)
			for _, x := range set {
				if err := p.Replicate(x[0], x[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d, order %d: %v", seed, order, err)
			}
			if first == nil {
				first = p
			}
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					srv, cost := p.Nearest(i, j)
					if k, c := p.NearestSource(i, j, nil, true); srv != k || cost != c {
						t.Fatalf("seed %d, order %d: SN(%d,%d) = (%d, %v), NearestSource (%d, %v)", seed, order, i, j, srv, cost, k, c)
					}
					if k, c := first.Nearest(i, j); srv != k || cost != c {
						t.Fatalf("seed %d: SN(%d,%d) = (%d, %v) in one order, (%d, %v) in another", seed, i, j, k, c, srv, cost)
					}
				}
			}
		}
	}
}

// tiedSystem is a random valid system on a short integer line: servers
// share positions (cost 0 apart) and equal distances, and each origin
// sits a whole number of hops away, so every rule of NearestSource's
// tie order is exercised. Every server can hold every site.
func tiedSystem(r *xrand.Source, n, m int) *System {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = r.Intn(4)
	}
	sys := &System{
		CostServer: make([][]float64, n),
		CostOrigin: make([][]float64, n),
		Demand:     make([][]float64, n),
		SiteBytes:  make([]int64, m),
		Capacity:   make([]int64, n),
	}
	originPos := make([]int, m)
	for j := range originPos {
		originPos[j] = r.Intn(6) - 1
		sys.SiteBytes[j] = 1
	}
	for i := 0; i < n; i++ {
		sys.CostServer[i] = make([]float64, n)
		sys.CostOrigin[i] = make([]float64, m)
		sys.Demand[i] = make([]float64, m)
		sys.Capacity[i] = int64(m)
		for k := 0; k < n; k++ {
			sys.CostServer[i][k] = math.Abs(float64(pos[i] - pos[k]))
		}
		for j := 0; j < m; j++ {
			sys.CostOrigin[i][j] = math.Abs(float64(pos[i] - originPos[j]))
		}
	}
	return sys
}

func TestNearestSourceLiveness(t *testing.T) {
	// Servers 0-1-2 on a line, site 0 replicated at 0 and 2, its origin
	// 1 hop from server 1 (a tie with both replicas) and 4 from server 0.
	sys := testSystem()
	sys.CostOrigin[1][0] = 1
	p := NewPlacement(sys)
	for _, i := range []int{0, 2} {
		if err := p.Replicate(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	all := func(int) bool { return true }
	but := func(dead int) func(int) bool { return func(k int) bool { return k != dead } }
	for _, tc := range []struct {
		name     string
		i        int
		up       func(int) bool
		originUp bool
		server   int
		cost     float64
	}{
		{"own replica first", 0, all, true, 0, 0},
		{"own replica down", 0, but(0), true, 2, 2},
		{"origin wins a tie with servers", 1, all, true, Origin, 1},
		{"lower index wins between servers", 1, all, false, 0, 1},
		{"a dead server is passed over", 1, but(0), false, 2, 1},
		{"no live source", 1, func(int) bool { return false }, false, Origin, math.Inf(1)},
	} {
		if k, c := p.NearestSource(tc.i, 0, tc.up, tc.originUp); k != tc.server || c != tc.cost {
			t.Errorf("%s: NearestSource(%d, 0) = (%d, %v), want (%d, %v)", tc.name, tc.i, k, c, tc.server, tc.cost)
		}
	}
	if k, c := sys.NearestServer(1, but(1)); k != 0 || c != 1 {
		t.Errorf("NearestServer(1) with 1 down = (%d, %v), want the lower index (0, 1)", k, c)
	}
	if k, c := sys.NearestServer(1, func(int) bool { return false }); k != -1 || !math.IsInf(c, 1) {
		t.Errorf("NearestServer with every server down = (%d, %v), want (-1, +Inf)", k, c)
	}
}
