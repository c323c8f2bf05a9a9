package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Stepper is the §5 serve rule one request at a time, for runs that
// change the placement between two requests: an online controller, an
// epoch boundary, a crash set. The driver owns the request source, the
// warm-up boundary and the latency sums; of cfg the stepper reads
// UseCache, Policy, UnitOf and PlacedGeneration. Unlike Run, p may
// belong to any system of the scenario's shape.
type Stepper struct {
	sh  *shard
	cfg Config
}

// NewStepper builds the per-server caches over the free space p leaves.
func NewStepper(sc *scenario.Scenario, p *core.Placement, cfg Config) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fits(sc, &cfg, p, cfg.PlacedGeneration); err != nil {
		return nil, err
	}
	s := &Stepper{cfg: cfg}
	s.sh = newShard(sc, p, &s.cfg)
	return s, nil
}

// fits checks p and placedGen against the scenario's shape.
func fits(sc *scenario.Scenario, cfg *Config, p *core.Placement, placedGen []int) error {
	sys, have := sc.Sys, p.System()
	if have.N() != sys.N() || (cfg.UnitOf == nil && have.M() != sys.M()) {
		return fmt.Errorf("sim: placement is %d×%d, scenario %d×%d", have.N(), have.M(), sys.N(), sys.M())
	}
	if placedGen != nil && len(placedGen) != have.M() {
		return fmt.Errorf("sim: %d placed generations for %d columns", len(placedGen), have.M())
	}
	return nil
}

// Step serves one request exactly as Run would and returns its
// redirection cost in hops and, when measured, its serving source.
func (s *Stepper) Step(req workload.Request, measured bool) (hops float64, source string) {
	if measured {
		s.sh.m.Requests++
	}
	return s.sh.step(req, measured)
}

// SetPlacement installs p, with placedGen the catalog generation each
// of its columns' replicas hold (nil = generation 0, see
// Config.PlacedGeneration), and resizes every cache to the free space p
// leaves, evicting where it shrank. Cached objects otherwise survive.
func (s *Stepper) SetPlacement(p *core.Placement, placedGen []int) error {
	if err := fits(s.sh.sc, &s.cfg, p, placedGen); err != nil {
		return err
	}
	s.sh.p, s.cfg.PlacedGeneration = p, placedGen
	for i, c := range s.sh.caches {
		c.Resize(p.Free(i))
	}
	return nil
}

// Metrics returns the counters of the measured steps so far. The mean
// response time, mean hops and per-server ratios are left for the
// driver, which sums latencies in whatever windows it reports.
func (s *Stepper) Metrics() *Metrics { return s.sh.m }
