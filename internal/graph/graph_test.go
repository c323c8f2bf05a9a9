package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestBasicEdges(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // a parallel edge collapses into the first
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 4/2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing a direction")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("degree(1)=%d, want 2", g.Degree(1))
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []func(){
		func() { New(3).AddEdge(1, 1) },
		func() { New(3).AddEdge(0, 3) },
		func() { New(3).AddEdge(-1, 0) },
		func() { New(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// from is the distance row of src.
func from(g *Graph, src int) []float64 { return g.ShortestPathsFrom([]int{src})[0] }

// allPairs is the full distance matrix.
func allPairs(g *Graph) [][]float64 {
	sources := make([]int, g.N())
	for i := range sources {
		sources[i] = i
	}
	return g.ShortestPathsFrom(sources)
}

func TestDijkstraLine(t *testing.T) {
	// 0-1-2-3 line: dist(0,k) = k.
	g := New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1)
	}
	d := from(g, 0)
	for k := 0; k < 4; k++ {
		if d[k] != float64(k) {
			t.Fatalf("dist(0,%d)=%v, want %d", k, d[k], k)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	d := from(g, 0)
	if !math.IsInf(d[2], 1) {
		t.Fatalf("dist to isolated node = %v, want +Inf", d[2])
	}
}

func TestConnected(t *testing.T) {
	g := New(3)
	if g.Connected() {
		t.Fatal("edgeless 3-node graph reported connected")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestShortestPathsSymmetric(t *testing.T) {
	// C(i,j) = C(j,i) is assumed by the paper (§3); verify on a random
	// connected graph.
	r := xrand.New(4)
	g := randomConnected(r, 40, 80)
	d := allPairs(g)
	for i := 0; i < g.N(); i++ {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d]=%v, want 0", i, i, d[i][i])
		}
		for j := 0; j < g.N(); j++ {
			if d[i][j] != d[j][i] {
				t.Fatalf("asymmetry: d[%d][%d]=%v d[%d][%d]=%v", i, j, d[i][j], j, i, d[j][i])
			}
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 5 + r.Intn(30)
		g := randomConnected(r, n, 2*n)
		d := allPairs(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if d[i][j] > d[i][k]+d[k][j]+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraMatchesBellmanFordProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(25)
		g := randomConnected(r, n, 3*n)
		want := bellmanFord(g, 0)
		got := from(g, 0)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathsFrom(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	rows := g.ShortestPathsFrom([]int{2, 4})
	if rows[0][0] != 2 || rows[1][0] != 4 {
		t.Fatalf("rows mismatch: %v", rows)
	}
}

func TestDiameter(t *testing.T) {
	g := New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1)
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("diameter %v, want 3", d)
	}
	disc := New(3)
	disc.AddEdge(0, 1)
	if d := disc.Diameter(); !math.IsInf(d, 1) {
		t.Fatalf("disconnected diameter %v, want +Inf", d)
	}
	if d := New(1).Diameter(); d != 0 {
		t.Fatalf("singleton diameter %v, want 0", d)
	}
}

// randomConnected builds a random connected graph: a random spanning tree
// plus extra random edges.
func randomConnected(r *xrand.Source, n, extra int) *Graph {
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)])
	}
	for e := 0; e < extra; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// bellmanFord is an O(VE) reference implementation for cross-checking
// the breadth-first search.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < g.N(); iter++ {
		changed := false
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if nd := dist[u] + 1; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func BenchmarkShortestFrom560(b *testing.B) {
	r := xrand.New(1)
	g := randomConnected(r, 560, 1200)
	var queue []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.shortestFrom(i%g.N(), &queue)
	}
}
