package placement

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// driftCycle returns patterns drifted copies of sys's demand, the shape
// of the offline_place workload's repair cycle: each rescales
// frac of the rows (rounded, at least one) cell by cell by a factor in
// [0.75, 1.25], rows and factors drawn from (seed, pattern).
func driftCycle(sys *core.System, patterns int, frac float64, seed uint64) []*core.System {
	n := sys.N()
	rows := max(int(frac*float64(n)+0.5), 1)
	out := make([]*core.System, patterns)
	for k := range out {
		r := xrand.New(seed).Split("drift-" + strconv.Itoa(k))
		out[k] = withDemand(sys, func(d [][]float64) {
			for _, i := range r.Perm(n)[:rows] {
				for j := range d[i] {
					d[i][j] *= 0.75 + 0.5*r.Float64()
				}
			}
		})
	}
	return out
}

// BenchmarkIncrementalWarm times one warm Incremental repair on the
// §5.1 instance (N = 50, M = 20, 2000 objects a site), chained round
// the offline_place cycle: 32 demand patterns, each with 5 % of the rows
// rescaled by factors in [0.75, 1.25], every repair from one pattern to
// the next. An op is one repair; dirty_rows/op is the rows it rebuilt.
// It runs serially (parallelism=1) and at the default worker count
// (parallelism=0, GOMAXPROCS) — the EXPERIMENTS.md warm-repair budget is
// a CPU profile of the serial case.
func BenchmarkIncrementalWarm(b *testing.B) {
	sc, err := scenario.Build(scenario.Default())
	if err != nil {
		b.Fatal(err)
	}
	const patterns = 32
	cycle := driftCycle(sc.Sys, patterns, 0.05, 1)
	for _, par := range []int{1, 0} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			cfg := IncrementalConfig{HybridConfig: HybridConfig{
				Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes, Parallelism: par,
			}}
			_, state, _, err := Incremental(nil, cycle[0], cfg)
			if err != nil {
				b.Fatal(err)
			}
			dirty := 0
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				var st IncrementalStats
				if _, state, st, err = Incremental(state, cycle[(op+1)%patterns], cfg); err != nil {
					b.Fatal(err)
				}
				if !st.Warm {
					b.Fatalf("repair %d fell back to a cold solve (%s)", op, st.Reason)
				}
				dirty += st.DirtyRows
			}
			b.ReportMetric(float64(dirty)/float64(b.N), "dirty_rows/op")
		})
	}
}
