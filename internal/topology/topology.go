// Package topology generates GT-ITM-style transit–stub network graphs.
//
// The paper's evaluation (§5.1) uses the GT-ITM topology generator to
// build "a random transit-stub graph with a total of 560 nodes", places
// each CDN server and each primary site inside a randomly selected stub
// domain, and derives the communication cost C(i, j) as the hop-count
// shortest path. GT-ITM itself is a C tool; this package reimplements its
// transit–stub construction:
//
//   - a top level of transit domains, internally connected random graphs,
//     joined to each other so the domain-level graph is connected;
//   - per transit node, a number of stub domains — small connected random
//     graphs — each attached to its transit node by an access edge.
//
// All edges have unit weight, so shortest paths are hop counts as in the
// paper. The default configuration yields 544 nodes (16 transit nodes,
// 48 stub domains of 11 nodes), matching the paper's ~560-node scale.
package topology

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Config sizes the transit–stub hierarchy.
type Config struct {
	// TransitDomains is the number of top-level domains.
	TransitDomains int
	// TransitNodesPerDomain is the number of routers per transit domain.
	TransitNodesPerDomain int
	// StubsPerTransitNode is how many stub domains hang off each
	// transit router.
	StubsPerTransitNode int
	// StubNodesPerStub is the number of routers per stub domain.
	StubNodesPerStub int
	// ExtraEdgeProb is the probability of each additional intra-domain
	// edge beyond the spanning tree that guarantees connectivity.
	ExtraEdgeProb float64
	// ExtraTransitEdges is the number of additional random
	// domain-to-domain edges beyond the domain-level spanning tree.
	ExtraTransitEdges int
}

// DefaultConfig reproduces the paper's scale: 4 transit domains of 4
// nodes, 3 stubs per transit node, 11 nodes per stub = 544 nodes total.
func DefaultConfig() Config {
	return Config{
		TransitDomains:        4,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		StubNodesPerStub:      11,
		ExtraEdgeProb:         0.3,
		ExtraTransitEdges:     4,
	}
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains = %d, need >= 1", c.TransitDomains)
	case c.TransitNodesPerDomain < 1:
		return fmt.Errorf("topology: TransitNodesPerDomain = %d, need >= 1", c.TransitNodesPerDomain)
	case c.StubsPerTransitNode < 1:
		return fmt.Errorf("topology: StubsPerTransitNode = %d, need >= 1", c.StubsPerTransitNode)
	case c.StubNodesPerStub < 1:
		return fmt.Errorf("topology: StubNodesPerStub = %d, need >= 1", c.StubNodesPerStub)
	case c.ExtraEdgeProb < 0 || c.ExtraEdgeProb > 1:
		return fmt.Errorf("topology: ExtraEdgeProb = %v, need [0,1]", c.ExtraEdgeProb)
	case c.ExtraTransitEdges < 0:
		return fmt.Errorf("topology: ExtraTransitEdges = %d, need >= 0", c.ExtraTransitEdges)
	}
	return nil
}

// TotalNodes returns the node count the configuration produces.
func (c Config) TotalNodes() int {
	transit := c.TransitDomains * c.TransitNodesPerDomain
	return transit + transit*c.StubsPerTransitNode*c.StubNodesPerStub
}

// Topology is a generated transit–stub graph plus the structural metadata
// the CDN model needs for placement.
type Topology struct {
	// G is the unit-weight graph; shortest paths are hop counts.
	G *graph.Graph
	// TransitNodes lists the node ids of all transit routers.
	TransitNodes []int
	// StubDomains lists, per stub domain, the node ids it contains.
	StubDomains [][]int
	// StubOf maps a node id to its stub domain index, or -1 for
	// transit nodes.
	StubOf []int
}

// Generate builds a transit–stub topology from cfg using r. The result is
// always connected. It panics on an invalid configuration (use
// cfg.Validate to pre-check user input).
func Generate(cfg Config, r *xrand.Source) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	total := cfg.TotalNodes()
	g := graph.New(total)
	t := &Topology{G: g, StubOf: make([]int, total)}
	for i := range t.StubOf {
		t.StubOf[i] = -1
	}

	// Allocate ids: transit nodes first, then stub nodes.
	next := 0
	domains := make([][]int, cfg.TransitDomains)
	for d := range domains {
		domains[d] = make([]int, cfg.TransitNodesPerDomain)
		for i := range domains[d] {
			domains[d][i] = next
			t.TransitNodes = append(t.TransitNodes, next)
			next++
		}
	}

	// Intra-transit-domain connectivity.
	for d := range domains {
		connectRandom(g, domains[d], cfg.ExtraEdgeProb, r)
	}
	// Domain-level spanning tree: join domain d to a random earlier one.
	for d := 1; d < cfg.TransitDomains; d++ {
		e := r.Intn(d)
		u := domains[d][r.Intn(len(domains[d]))]
		v := domains[e][r.Intn(len(domains[e]))]
		g.AddEdge(u, v)
	}
	// Extra inter-domain edges for path diversity.
	if cfg.TransitDomains > 1 {
		for k := 0; k < cfg.ExtraTransitEdges; k++ {
			d := r.Intn(cfg.TransitDomains)
			e := r.Intn(cfg.TransitDomains)
			if d == e {
				continue
			}
			u := domains[d][r.Intn(len(domains[d]))]
			v := domains[e][r.Intn(len(domains[e]))]
			g.AddEdge(u, v)
		}
	}

	// Stub domains.
	for _, tn := range t.TransitNodes {
		for s := 0; s < cfg.StubsPerTransitNode; s++ {
			stub := make([]int, cfg.StubNodesPerStub)
			for i := range stub {
				stub[i] = next
				t.StubOf[next] = len(t.StubDomains)
				next++
			}
			connectRandom(g, stub, cfg.ExtraEdgeProb, r)
			// Access link: a random stub router uplinks to the
			// transit node.
			g.AddEdge(stub[r.Intn(len(stub))], tn)
			t.StubDomains = append(t.StubDomains, stub)
		}
	}
	return t
}

// connectRandom wires nodes into a connected random subgraph: a random
// spanning tree, plus each remaining pair with probability extraProb.
func connectRandom(g *graph.Graph, nodes []int, extraProb float64, r *xrand.Source) {
	if len(nodes) <= 1 {
		return
	}
	perm := r.Perm(len(nodes))
	for i := 1; i < len(perm); i++ {
		g.AddEdge(nodes[perm[i]], nodes[perm[r.Intn(i)]])
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) && r.Float64() < extraProb {
				g.AddEdge(nodes[i], nodes[j])
			}
		}
	}
}

// PlaceInStubs picks n node ids located in stub domains, one per randomly
// selected stub domain while distinct domains remain (the paper places
// "each server and primary site inside a randomly selected stub domain").
// When n exceeds the number of stub domains, placement wraps around and
// domains are reused, still avoiding duplicate node ids until a domain is
// exhausted. It fails if n exceeds the total number of stub nodes.
func (t *Topology) PlaceInStubs(n int, r *xrand.Source) ([]int, error) {
	totalStubNodes := 0
	for _, s := range t.StubDomains {
		totalStubNodes += len(s)
	}
	if n > totalStubNodes {
		return nil, fmt.Errorf("topology: cannot place %d nodes in %d stub slots", n, totalStubNodes)
	}
	used := make(map[int]bool, n)
	out := make([]int, 0, n)
	order := r.Perm(len(t.StubDomains))
	for round := 0; len(out) < n; round++ {
		progressed := false
		for _, si := range order {
			if len(out) == n {
				break
			}
			stub := t.StubDomains[si]
			// Pick an unused node from this stub, if any.
			start := r.Intn(len(stub))
			for k := 0; k < len(stub); k++ {
				node := stub[(start+k)%len(stub)]
				if !used[node] {
					used[node] = true
					out = append(out, node)
					progressed = true
					break
				}
			}
		}
		if !progressed {
			panic("topology: placement made no progress") // unreachable given the capacity check
		}
	}
	return out, nil
}
