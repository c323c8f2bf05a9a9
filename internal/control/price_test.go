package control

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
)

// fixedDemand is a DemandSource that hands the controller exactly the
// matrix a test sets, so the test can price the round's system itself.
type fixedDemand struct{ demand [][]float64 }

func (f *fixedDemand) Roll() int64                 { return 1 }
func (f *fixedDemand) Demand() ([][]float64, bool) { return f.demand, true }
func (f *fixedDemand) Observed() int64             { return 1 }
func (f *fixedDemand) ServerRates() []float64      { return nil }
func (f *fixedDemand) SiteRates() []float64        { return nil }
func (f *fixedDemand) WindowTotals() []int64       { return nil }

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// TestReconcileCostsMatchProbe: the round's OldCost and NewCost, priced
// with the round's own solve, are bit-identical to fresh-table probes of
// the same placements in a cold round (every row reuses its predictor),
// a warm round with a rebuilt row, a drifted clean row and unchanged
// clean rows (only the rebuilt and unchanged rows may reuse), and a
// round with an excluded edge (whose row's capacity differs from the
// solve's), at every parallelism: the controller's solves fan out over
// GOMAXPROCS workers. A controller on a custom Source exposes no
// Estimator().
func TestReconcileCostsMatchProbe(t *testing.T) {
	sc := testScenario(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			runtime.GOMAXPROCS(par)
			src := &fixedDemand{demand: cloneMatrix(sc.Sys.Demand)}
			health := &fakeHealth{}
			target := NewModelTarget(placement.None(sc.Sys).Placement)
			ctrl := newTestController(t, sc, target, func(cfg *Config) {
				cfg.Source = src
				cfg.Health = health
				cfg.Hysteresis = -1
				cfg.CooldownRounds = -1
			})
			if ctrl.Estimator() != nil {
				t.Fatal("Estimator() must be nil for a custom Source")
			}
			fresh := placement.CostOptions{Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes}
			price := func(p *core.Placement) float64 {
				t.Helper()
				c, err := placement.PredictCostOpts(p, fresh)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			round := func(name string) *Report {
				t.Helper()
				// Every round starts from no replicas, so every round's plan
				// is non-empty and gets priced.
				target.SwapPlacement(placement.None(sc.Sys).Placement)
				cur := target.Placement()
				rep, err := ctrl.Reconcile()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Outcome != OutcomeApplied {
					t.Fatalf("%s: outcome %s, want applied", name, rep.Outcome)
				}
				sys, err := sc.Sys.WithDemand(src.demand)
				if err != nil {
					t.Fatal(err)
				}
				curOn, err := cur.RebuildOn(sys)
				if err != nil {
					t.Fatal(err)
				}
				if want := price(curOn); rep.OldCost != want {
					t.Errorf("%s: OldCost %v, fresh probe %v", name, rep.OldCost, want)
				}
				if want := price(target.Placement()); rep.NewCost != want {
					t.Errorf("%s: NewCost %v, fresh probe %v", name, rep.NewCost, want)
				}
				return rep
			}

			if rep := round("cold"); rep.Engine != "lazy" {
				t.Fatalf("cold round ran engine %q", rep.Engine)
			}

			// Row 0 moves half its mass (rebuilt), row 1 drifts 1% (kept,
			// but built on the old demand), the rest stay put (kept, and
			// built on exactly this demand).
			d := cloneMatrix(src.demand)
			half := 0.0
			for j := range d[0] {
				if j%2 == 0 {
					half += d[0][j] / 2
					d[0][j] /= 2
				}
			}
			d[0][1] += half
			d[1][0] *= 1.01
			src.demand = d
			rep := round("warm")
			last := ctrl.Audit()[len(ctrl.Audit())-1]
			if rep.Engine != "warm" || last.Warm.DirtyRows != 1 {
				t.Fatalf("warm round: engine %q, %d dirty rows; want warm with 1", rep.Engine, last.Warm.DirtyRows)
			}

			health.set(2)
			if rep := round("excluded"); fmt.Sprint(rep.Excluded) != "[2]" {
				t.Fatalf("excluded round excluded %v, want [2]", rep.Excluded)
			}
		})
	}
}
