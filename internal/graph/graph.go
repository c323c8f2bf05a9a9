// Package graph implements the undirected hop-count graphs and the
// shortest-path machinery the CDN model is built on. The paper's
// communication cost C(i, j) between two nodes is "the cumulative cost of
// the shortest path between the two nodes (e.g., the total number of
// hops)" (§3); every link counts one hop, so one breadth-first search
// from every node of interest gives the hop counts the authors compute
// for their GT-ITM topology.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Graph is an undirected graph over nodes 0..N-1 stored as adjacency
// lists. Parallel edges are collapsed to one; self-loops are rejected.
type Graph struct {
	n   int
	adj [][]int
}

// New creates a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New(%d)", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// AddEdge inserts the undirected edge {u, v}, one hop long; adding it
// again changes nothing. It panics on self-loops and out-of-range
// endpoints, both of which indicate topology-generator bugs.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The slice is shared; callers
// must not modify it.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Connected reports whether the graph is connected (true for empty and
// single-node graphs).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// shortestFrom is the breadth-first search from src: each node's hop
// count, +Inf where unreachable. queue is the caller's reusable BFS
// queue; the distance row is always freshly allocated because callers
// keep it.
func (g *Graph) shortestFrom(src int, queue *[]int32) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := append((*queue)[:0], int32(src))
	for head := 0; head < len(q); head++ {
		u := int(q[head])
		nd := dist[u] + 1
		for _, v := range g.adj[u] {
			if math.IsInf(dist[v], 1) {
				dist[v] = nd
				q = append(q, int32(v))
			}
		}
	}
	*queue = q
	return dist
}

// ShortestPathsFrom computes the distance rows only for the given source
// nodes, returned in the same order, in parallel (each source's search
// is independent and the graph is read-only during the sweep). The CDN
// model only needs rows for servers and origins, not for every router.
func (g *Graph) ShortestPathsFrom(sources []int) [][]float64 {
	d := make([][]float64, len(sources))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers <= 1 {
		var queue []int32
		for i, src := range sources {
			d[i] = g.shortestFrom(src, &queue)
		}
		return d
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var queue []int32
			for i := range next {
				d[i] = g.shortestFrom(sources[i], &queue)
			}
		}()
	}
	for i := range sources {
		next <- i
	}
	close(next)
	wg.Wait()
	return d
}

// Diameter returns the largest finite pairwise distance, or +Inf if the
// graph is disconnected, or 0 for graphs with fewer than 2 nodes.
func (g *Graph) Diameter() float64 {
	if g.n < 2 {
		return 0
	}
	max := 0.0
	var queue []int32
	for i := 0; i < g.n; i++ {
		for _, d := range g.shortestFrom(i, &queue) {
			if math.IsInf(d, 1) {
				return math.Inf(1)
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}
