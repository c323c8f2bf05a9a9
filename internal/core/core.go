// Package core implements the paper's system model (§3): N CDN servers
// with storage capacities s(i), M hosted sites with sizes o_j and one
// primary copy each, hop-count communication costs C(i,j), the boolean
// replication matrix X, the nearest-replicator tables SN, and the
// cumulative transfer cost
//
//	D = Σ_i Σ_j (r_j^(i) − l_j^(i)) · C(i, SN_j^(i))
//
// that the replica placement problem minimizes subject to the per-server
// storage constraint Σ_j X_ij·o_j ≤ s(i) (§3.1).
//
// A Placement tracks X incrementally: creating a replica updates the
// nearest-replicator table of every server in O(N) and the remaining free
// space (which the hybrid scheme hands to the LRU cache). The placement
// algorithms in internal/placement drive this type.
package core

import (
	"fmt"
	"math"
)

// System is an immutable description of one CDN deployment: topology
// costs, site sizes and per-server demand. Placements reference a System
// and never modify it.
type System struct {
	// CostServer[i][k] is C(i,k) between servers i and k in hops;
	// symmetric with zero diagonal.
	CostServer [][]float64
	// CostOrigin[i][j] is C(i, SP_j): server i to the origin (primary
	// site) of site j.
	CostOrigin [][]float64
	// SiteBytes[j] is o_j.
	SiteBytes []int64
	// Capacity[i] is s(i) in bytes.
	Capacity []int64
	// Demand[i][j] is r_j^(i), the request rate of server i for site
	// j. Any positive scale; the experiments normalize ΣΣ = 1 so that
	// costs read as hops per request.
	Demand [][]float64
}

// N returns the number of CDN servers.
func (s *System) N() int { return len(s.Capacity) }

// M returns the number of hosted sites.
func (s *System) M() int { return len(s.SiteBytes) }

// Validate checks structural consistency; placement algorithms assume a
// valid System and do not re-check.
func (s *System) Validate() error {
	n, m := s.N(), s.M()
	if n == 0 || m == 0 {
		return fmt.Errorf("core: empty system (N=%d, M=%d)", n, m)
	}
	if len(s.CostServer) != n || len(s.CostOrigin) != n || len(s.Demand) != n {
		return fmt.Errorf("core: matrix row counts disagree with N=%d", n)
	}
	for i := 0; i < n; i++ {
		if len(s.CostServer[i]) != n {
			return fmt.Errorf("core: CostServer[%d] has %d cols, want %d", i, len(s.CostServer[i]), n)
		}
		if len(s.CostOrigin[i]) != m {
			return fmt.Errorf("core: CostOrigin[%d] has %d cols, want %d", i, len(s.CostOrigin[i]), m)
		}
		if len(s.Demand[i]) != m {
			return fmt.Errorf("core: Demand[%d] has %d cols, want %d", i, len(s.Demand[i]), m)
		}
		if s.CostServer[i][i] != 0 {
			return fmt.Errorf("core: CostServer[%d][%d] = %v, want 0", i, i, s.CostServer[i][i])
		}
		if s.Capacity[i] < 0 {
			return fmt.Errorf("core: Capacity[%d] = %d", i, s.Capacity[i])
		}
		for k := 0; k < n; k++ {
			if s.CostServer[i][k] < 0 {
				return fmt.Errorf("core: negative cost C(%d,%d)", i, k)
			}
			if s.CostServer[i][k] != s.CostServer[k][i] {
				return fmt.Errorf("core: asymmetric cost C(%d,%d)", i, k)
			}
		}
		for j := 0; j < m; j++ {
			if s.CostOrigin[i][j] < 0 {
				return fmt.Errorf("core: negative origin cost C(%d, SP_%d)", i, j)
			}
			if s.Demand[i][j] < 0 {
				return fmt.Errorf("core: negative demand r_%d^(%d)", j, i)
			}
		}
	}
	for j, o := range s.SiteBytes {
		if o <= 0 {
			return fmt.Errorf("core: SiteBytes[%d] = %d", j, o)
		}
	}
	return nil
}

// WithDemand derives a System that shares this one's costs, site sizes
// and capacities but substitutes the given demand matrix — the entry
// point for re-running a placement algorithm against freshly estimated
// demand on an unchanged deployment (the online control loop does this
// every reconcile round).
func (s *System) WithDemand(demand [][]float64) (*System, error) {
	if len(demand) != s.N() {
		return nil, fmt.Errorf("core: %d demand rows for %d servers", len(demand), s.N())
	}
	for i, row := range demand {
		if len(row) != s.M() {
			return nil, fmt.Errorf("core: demand row %d has %d cols, want %d", i, len(row), s.M())
		}
		for j, r := range row {
			if r < 0 {
				return nil, fmt.Errorf("core: negative demand r_%d^(%d)", j, i)
			}
		}
	}
	return &System{
		CostServer: s.CostServer,
		CostOrigin: s.CostOrigin,
		SiteBytes:  s.SiteBytes,
		Capacity:   s.Capacity,
		Demand:     demand,
	}, nil
}

// WithServersDown derives a System in which the marked servers cannot
// hold replicas: their storage capacity is zeroed. Costs, site sizes and
// demand are shared unchanged — a down server's clients still generate
// demand (the serving layer re-dispatches them), it just must not be a
// replication target. The failure-reactive control loop runs the
// placement algorithm on this view so ejected servers are excluded from
// new plans.
func (s *System) WithServersDown(down []bool) (*System, error) {
	if len(down) != s.N() {
		return nil, fmt.Errorf("core: %d down flags for %d servers", len(down), s.N())
	}
	capacity := append([]int64(nil), s.Capacity...)
	for i, d := range down {
		if d {
			capacity[i] = 0
		}
	}
	return &System{
		CostServer: s.CostServer,
		CostOrigin: s.CostOrigin,
		SiteBytes:  s.SiteBytes,
		Capacity:   capacity,
		Demand:     s.Demand,
	}, nil
}

// Origin is the sentinel "server index" of a site's primary copy in
// nearest-replicator tables.
const Origin = -1

// Placement is the mutable replication state: the X matrix of §3.1 plus
// the derived nearest-replicator (SN) tables and per-server free space.
type Placement struct {
	sys *System
	x   [][]bool
	// nearest[i][j] is SN_j^(i): the server holding the replica of
	// site j closest to server i, or Origin.
	nearest [][]int
	// nearestCost[i][j] is C(i, SN_j^(i)); 0 when X_ij = 1.
	nearestCost [][]float64
	free        []int64
	replicas    int
}

// NewPlacement returns the empty placement: only primary copies exist,
// every SN points at the origin, and all storage is free (the hybrid
// algorithm's "all storage space is given to caching" starting state).
func NewPlacement(sys *System) *Placement {
	n, m := sys.N(), sys.M()
	p := &Placement{
		sys:         sys,
		x:           make([][]bool, n),
		nearest:     make([][]int, n),
		nearestCost: make([][]float64, n),
		free:        make([]int64, n),
	}
	for i := 0; i < n; i++ {
		p.x[i] = make([]bool, m)
		p.nearest[i] = make([]int, m)
		p.nearestCost[i] = make([]float64, m)
		p.free[i] = sys.Capacity[i]
		for j := 0; j < m; j++ {
			p.nearest[i][j] = Origin
			p.nearestCost[i][j] = sys.CostOrigin[i][j]
		}
	}
	return p
}

// System returns the system the placement belongs to.
func (p *Placement) System() *System { return p.sys }

// Has reports X_ij.
func (p *Placement) Has(i, j int) bool { return p.x[i][j] }

// Free returns the unreplicated bytes of server i — the cache space under
// the hybrid scheme.
func (p *Placement) Free(i int) int64 { return p.free[i] }

// Replicas returns the total number of replicas created.
func (p *Placement) Replicas() int { return p.replicas }

// Nearest returns SN_j^(i) (a server index, or Origin) and its cost,
// NearestSource's answer with every source up. If X_ij = 1 it is (i, 0).
func (p *Placement) Nearest(i, j int) (server int, cost float64) {
	return p.nearest[i][j], p.nearestCost[i][j]
}

// NearestSource answers "who serves site j from server i" — SN_j^(i) of
// §3.1 among the live sources — under the one nearest-source rule:
// server i's own replica first, then the lowest cost; the origin wins a
// tie with a server, and the lower index a tie between servers. up(k)
// says whether server k may serve (nil: every server may); it is asked
// about every server holding site j unless i's own replica answers.
// originUp says whether site j's origin may. With no live source the
// answer is (Origin, +Inf).
func (p *Placement) NearestSource(i, j int, up func(k int) bool, originUp bool) (server int, cost float64) {
	if p.x[i][j] && (up == nil || up(i)) {
		return i, 0
	}
	server, cost = Origin, math.Inf(1)
	if originUp {
		cost = p.sys.CostOrigin[i][j]
	}
	row := p.sys.CostServer[i]
	for k, xk := range p.x {
		if xk[j] && (up == nil || up(k)) && row[k] < cost {
			server, cost = k, row[k]
		}
	}
	return server, cost
}

// NearestServer is the rule among servers alone: the cheapest server to
// server i that up admits — i itself first, then the lowest cost, the
// lower index on a tie — or (-1, +Inf) when up admits none. up is asked
// about every server unless it admits i.
func (s *System) NearestServer(i int, up func(k int) bool) (server int, cost float64) {
	if up(i) {
		return i, 0
	}
	server, cost = -1, math.Inf(1)
	for k, c := range s.CostServer[i] {
		if up(k) && c < cost {
			server, cost = k, c
		}
	}
	return server, cost
}

// NearestCost returns C(i, SN_j^(i)).
func (p *Placement) NearestCost(i, j int) float64 { return p.nearestCost[i][j] }

// CanReplicate reports whether site j fits into server i's free space and
// is not already replicated there.
func (p *Placement) CanReplicate(i, j int) bool {
	return !p.x[i][j] && p.sys.SiteBytes[j] <= p.free[i]
}

// Replicate creates the replica (i, j), updating free space and every
// server's SN entry for site j. It returns an error if the replica
// already exists or violates the capacity constraint.
func (p *Placement) Replicate(i, j int) error {
	_, err := p.ReplicateTracked(i, j)
	return err
}

// ReplicateTracked is Replicate that also reports the servers whose
// SN cost for site j strictly improved (the placement algorithms use
// this for exact incremental benefit maintenance). The slice is freshly
// allocated and always includes i when the call succeeds.
func (p *Placement) ReplicateTracked(i, j int) ([]int, error) {
	if p.x[i][j] {
		return nil, fmt.Errorf("core: replica (%d,%d) already exists", i, j)
	}
	if o := p.sys.SiteBytes[j]; o > p.free[i] {
		return nil, fmt.Errorf("core: site %d (%d bytes) exceeds free space %d at server %d",
			j, o, p.free[i], i)
	}
	p.x[i][j] = true
	p.free[i] -= p.sys.SiteBytes[j]
	p.replicas++
	// The new replica can only improve SN entries for site j; under
	// NearestSource's rule it also takes a tied entry from a higher-index
	// server (not from the origin, nor from a server's own replica).
	var improved []int
	for k := 0; k < p.sys.N(); k++ {
		c, snCost := p.sys.CostServer[k][i], p.nearestCost[k][j]
		if c < snCost || k == i {
			// i itself is always affected (its free space changed) even
			// if its SN cost was already optimal.
			improved = append(improved, k)
		} else if c > snCost || i > p.nearest[k][j] || p.x[k][j] {
			continue
		}
		p.nearest[k][j], p.nearestCost[k][j] = i, c
	}
	return improved, nil
}

// Clone deep-copies the placement (the System is shared).
func (p *Placement) Clone() *Placement {
	q := &Placement{sys: p.sys, replicas: p.replicas}
	q.x = make([][]bool, len(p.x))
	q.nearest = make([][]int, len(p.nearest))
	q.nearestCost = make([][]float64, len(p.nearestCost))
	q.free = append([]int64(nil), p.free...)
	for i := range p.x {
		q.x[i] = append([]bool(nil), p.x[i]...)
		q.nearest[i] = append([]int(nil), p.nearest[i]...)
		q.nearestCost[i] = append([]float64(nil), p.nearestCost[i]...)
	}
	return q
}

// RebuildOn replays this placement's replica set onto another System of
// the same shape (typically one derived via WithDemand): the objective
// of an existing placement can then be evaluated under fresh demand.
// The copy is independent of the receiver.
func (p *Placement) RebuildOn(sys *System) (*Placement, error) {
	if sys.N() != p.sys.N() || sys.M() != p.sys.M() {
		return nil, fmt.Errorf("core: rebuild onto %dx%d system, placement is %dx%d",
			sys.N(), sys.M(), p.sys.N(), p.sys.M())
	}
	q := NewPlacement(sys)
	for i := 0; i < p.sys.N(); i++ {
		for j := 0; j < p.sys.M(); j++ {
			if p.x[i][j] {
				if err := q.Replicate(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return q, nil
}

// HitRatioFunc supplies the expected local-service fraction h_j^(i) for a
// (server, site) pair under the current cache configuration. The pure
// replication problem uses ZeroHitRatio.
type HitRatioFunc func(i, j int) float64

// ZeroHitRatio models a system without caches: l_j^(i) = 0 everywhere.
func ZeroHitRatio(i, j int) float64 { return 0 }

// Cost evaluates the paper's objective D for this placement:
//
//	D = Σ_i Σ_j (1 − h_j^(i)) · r_j^(i) · C(i, SN_j^(i))
//
// Replicated pairs contribute zero (C(i,i) = 0). With demand normalized
// to 1, D is the expected cost per request in hops.
func (p *Placement) Cost(h HitRatioFunc) float64 {
	total := 0.0
	for i := 0; i < p.sys.N(); i++ {
		for j := 0; j < p.sys.M(); j++ {
			c := p.nearestCost[i][j]
			if c == 0 {
				continue
			}
			total += (1 - h(i, j)) * p.sys.Demand[i][j] * c
		}
	}
	return total
}

// UpdateCost evaluates the update-propagation component of the
// read-plus-update FAP objective (§2.2, [19, 28]): every update to site
// j travels from its primary copy to each replica,
//
//	U = Σ_j u_j · Σ_i X_ij · C(i, SP_j),
//
// where updateRates[j] is u_j on the same scale as the read demand.
// The paper's experiments use u = 0 (read-only); the update-sweep
// extension exercises this term.
func (p *Placement) UpdateCost(updateRates []float64) float64 {
	if len(updateRates) != p.sys.M() {
		panic(fmt.Sprintf("core: %d update rates for %d sites", len(updateRates), p.sys.M()))
	}
	total := 0.0
	for j := 0; j < p.sys.M(); j++ {
		if updateRates[j] == 0 {
			continue
		}
		for i := 0; i < p.sys.N(); i++ {
			if p.x[i][j] {
				total += updateRates[j] * p.sys.CostOrigin[i][j]
			}
		}
	}
	return total
}

// CheckInvariants verifies the internal consistency of the placement
// against a recomputation from scratch; used by tests and enabled in the
// simulator's debug path.
func (p *Placement) CheckInvariants() error {
	for i := 0; i < p.sys.N(); i++ {
		var used int64
		for j := 0; j < p.sys.M(); j++ {
			if p.x[i][j] {
				used += p.sys.SiteBytes[j]
			}
			// SN_j^(i), server and cost, recomputed from scratch.
			if k, c := p.NearestSource(i, j, nil, true); p.nearest[i][j] != k || p.nearestCost[i][j] != c {
				return fmt.Errorf("core: SN (%d,%d) = (%d, %v), recomputed (%d, %v)",
					i, j, p.nearest[i][j], p.nearestCost[i][j], k, c)
			}
		}
		if used+p.free[i] != p.sys.Capacity[i] {
			return fmt.Errorf("core: server %d used %d + free %d != capacity %d",
				i, used, p.free[i], p.sys.Capacity[i])
		}
		if p.free[i] < 0 {
			return fmt.Errorf("core: server %d negative free space", i)
		}
	}
	return nil
}
