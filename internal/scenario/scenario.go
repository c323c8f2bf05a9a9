// Package scenario assembles a complete experiment instance the way §5.1
// describes: generate a transit–stub topology, place the N CDN servers
// and the M primary sites in randomly selected stub domains, compute
// hop-count shortest paths from every server, synthesize the SURGE-like
// workload, and size the homogeneous server storage as a percentage of
// the cumulative size of all web sites.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config describes one experiment instance.
type Config struct {
	Topology topology.Config
	Workload workload.Config
	// CapacityFrac is the per-server storage capacity as a fraction of
	// Σ_j o_j (the paper evaluates 5%, 10% and 20%).
	CapacityFrac float64
	// CapacitySpread makes servers heterogeneous: capacities become
	// lognormal with this σ around the homogeneous value, rescaled so
	// the total capacity matches the homogeneous case. 0 reproduces
	// the paper's "homogeneous servers" assumption (§5.1).
	CapacitySpread float64
	// Seed derives every random stream of the instance.
	Seed uint64
}

// Default returns the paper's §5.1 setup: ~560-node transit–stub graph,
// 50 servers, 20 sites, 5% capacity.
func Default() Config {
	return Config{
		Topology:     topology.DefaultConfig(),
		Workload:     workload.DefaultConfig(),
		CapacityFrac: 0.05,
		Seed:         1,
	}
}

// Scale returns cfg grown by an integer factor: factor× the transit
// domains (the topology's node count grows linearly with them), factor×
// the servers and factor× every site-popularity class, with CapacityFrac
// divided by factor so each server's storage stays constant in
// site-equivalents (the paper sizes storage as a percentage of Σ o_j,
// which itself grows with the site count). Scale(cfg, 1) == cfg; the
// 10× paper-scale experiments use Scale(Default(), 10).
func Scale(cfg Config, factor int) Config {
	if factor < 1 {
		panic(fmt.Sprintf("scenario: Scale factor %d", factor))
	}
	out := cfg
	out.Topology.TransitDomains *= factor
	out.Workload.Servers *= factor
	out.Workload.LowSites *= factor
	out.Workload.MediumSites *= factor
	out.Workload.HighSites *= factor
	out.CapacityFrac /= float64(factor)
	return out
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.CapacityFrac < 0 || c.CapacityFrac > 1 {
		return fmt.Errorf("scenario: CapacityFrac = %v", c.CapacityFrac)
	}
	if c.CapacitySpread < 0 {
		return fmt.Errorf("scenario: CapacitySpread = %v", c.CapacitySpread)
	}
	return nil
}

// Scenario is a fully built experiment instance.
type Scenario struct {
	Cfg         Config
	Topo        *topology.Topology
	Work        *workload.Workload
	Sys         *core.System
	ServerNodes []int // graph node of each CDN server
	OriginNodes []int // graph node of each site's primary copy
}

// Build constructs the scenario deterministically from cfg.
func Build(cfg Config) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)

	topo := topology.Generate(cfg.Topology, root.Split("topology"))
	work, err := workload.Generate(cfg.Workload, root.Split("workload"))
	if err != nil {
		return nil, err
	}

	n := cfg.Workload.Servers
	m := cfg.Workload.Sites()
	nodes, err := topo.PlaceInStubs(n+m, root.Split("placement"))
	if err != nil {
		return nil, err
	}
	serverNodes := nodes[:n]
	originNodes := nodes[n:]

	// One hop-count search per server gives both cost matrices
	// (§5.1: "Using Dijkstra's algorithm, we calculated the shortest
	// path (in terms of number of hops) from each server towards every
	// other server and primary site").
	rows := topo.G.ShortestPathsFrom(serverNodes)
	sys := &core.System{
		CostServer: make([][]float64, n),
		CostOrigin: make([][]float64, n),
		Demand:     work.Demand,
		SiteBytes:  work.SiteBytes(),
		Capacity:   make([]int64, n),
	}
	capacities := capacityVector(cfg, work.TotalBytes, n, root.Split("capacity"))
	for i := 0; i < n; i++ {
		sys.CostServer[i] = make([]float64, n)
		sys.CostOrigin[i] = make([]float64, m)
		for k := 0; k < n; k++ {
			sys.CostServer[i][k] = rows[i][serverNodes[k]]
		}
		for j := 0; j < m; j++ {
			sys.CostOrigin[i][j] = rows[i][originNodes[j]]
		}
		sys.Capacity[i] = capacities[i]
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: built an invalid system: %w", err)
	}
	return &Scenario{
		Cfg:         cfg,
		Topo:        topo,
		Work:        work,
		Sys:         sys,
		ServerNodes: serverNodes,
		OriginNodes: originNodes,
	}, nil
}

// capacityVector draws the per-server capacities: homogeneous at
// CapacityFrac·totalBytes, or lognormal around it (rescaled to preserve
// the aggregate) when CapacitySpread > 0.
func capacityVector(cfg Config, totalBytes int64, n int, r *xrand.Source) []int64 {
	base := cfg.CapacityFrac * float64(totalBytes)
	out := make([]int64, n)
	if cfg.CapacitySpread == 0 {
		for i := range out {
			out[i] = int64(base)
		}
		return out
	}
	raw := make([]float64, n)
	sum := 0.0
	for i := range raw {
		raw[i] = math.Exp(cfg.CapacitySpread * r.NormFloat64())
		sum += raw[i]
	}
	for i := range out {
		out[i] = int64(base * float64(n) * raw[i] / sum)
	}
	return out
}

// MustBuild is Build for known-good configurations.
func MustBuild(cfg Config) *Scenario {
	sc, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return sc
}

// Stream returns a fresh request stream over the scenario's workload.
func (s *Scenario) Stream(r *xrand.Source) *workload.Stream {
	return workload.NewStream(s.Work, r)
}
