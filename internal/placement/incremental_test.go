package placement

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/xrand"
)

// hybridReference is the literal Figure 2 loop: every candidate's
// benefit re-evaluated from scratch at every iteration. The production
// Hybrid maintains the benefit matrix incrementally; this reference
// pins down that the optimization is exact.
func hybridReference(sys *core.System, specs []lrumodel.SiteSpec, avgObj float64) []Step {
	n, m := sys.N(), sys.M()
	p := core.NewPlacement(sys)
	preds := make([]*lrumodel.Predictor, n)
	h := make([][]float64, n)
	visMass := make([]float64, n)
	for i := 0; i < n; i++ {
		preds[i] = mustModel(lrumodel.ModelEq1, specs, sys.Demand[i], avgObj, sys.Capacity[i], nil)
		h[i] = preds[i].HitRatios(p.Free(i))
		visMass[i] = 1
	}
	var steps []Step
	for {
		bestB := 0.0
		bestI, bestJ := -1, -1
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !p.CanReplicate(i, j) {
					continue
				}
				b := hybridBenefit(sys, p, preds, h, visMass, i, j)
				if b > bestB {
					bestB, bestI, bestJ = b, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		mustReplicate(p, bestI, bestJ)
		visMass[bestI] -= preds[bestI].SitePopularity(bestJ)
		visible := make([]bool, m)
		for k := 0; k < m; k++ {
			visible[k] = !p.Has(bestI, k)
		}
		copy(h[bestI], preds[bestI].HitRatiosCond(visible, p.Free(bestI)))
		steps = append(steps, Step{Server: bestI, Site: bestJ, Benefit: bestB})
	}
	return steps
}

// TestHybridIncrementalMatchesReference verifies that the incremental
// benefit maintenance reproduces the naive algorithm decision for
// decision on randomized systems.
func TestHybridIncrementalMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		sys, specs := randomSystem(xrand.New(seed), 8, 6, 0.3)
		fast, err := Hybrid(sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := hybridReference(sys, specs, 1)
		if len(fast.Steps) != len(want) {
			t.Fatalf("seed %d: %d steps vs reference %d", seed, len(fast.Steps), len(want))
		}
		for si := range want {
			g, w := fast.Steps[si], want[si]
			if g.Server != w.Server || g.Site != w.Site {
				t.Fatalf("seed %d step %d: picked (%d,%d), reference (%d,%d)",
					seed, si, g.Server, g.Site, w.Server, w.Site)
			}
			if diff := g.Benefit - w.Benefit; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d step %d: benefit %v vs reference %v",
					seed, si, g.Benefit, w.Benefit)
			}
		}
	}
}

// TestGreedyIncrementalMatchesReference does the same for greedy-global.
func TestGreedyIncrementalMatchesReference(t *testing.T) {
	for seed := uint64(10); seed < 16; seed++ {
		sys, _ := randomSystem(xrand.New(seed), 10, 7, 0.3)
		fast := GreedyGlobal(sys)

		// Naive reference.
		p := core.NewPlacement(sys)
		var want []Step
		for {
			bestB := 0.0
			bestI, bestJ := -1, -1
			for i := 0; i < sys.N(); i++ {
				for j := 0; j < sys.M(); j++ {
					if !p.CanReplicate(i, j) {
						continue
					}
					if b := greedyBenefit(sys, p, i, j); b > bestB {
						bestB, bestI, bestJ = b, i, j
					}
				}
			}
			if bestI < 0 {
				break
			}
			mustReplicate(p, bestI, bestJ)
			want = append(want, Step{Server: bestI, Site: bestJ, Benefit: bestB})
		}

		if len(fast.Steps) != len(want) {
			t.Fatalf("seed %d: %d steps vs reference %d", seed, len(fast.Steps), len(want))
		}
		for si := range want {
			g, w := fast.Steps[si], want[si]
			if g.Server != w.Server || g.Site != w.Site {
				t.Fatalf("seed %d step %d: picked (%d,%d), reference (%d,%d)",
					seed, si, g.Server, g.Site, w.Server, w.Site)
			}
		}
	}
}
