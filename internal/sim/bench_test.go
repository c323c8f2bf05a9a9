package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// benchSetup builds one scenario + hybrid placement pair shared by the
// simulator benchmarks, with a request volume large enough that the
// per-request hot loop dominates setup. KeepResponseTimes is off so the
// allocation numbers reflect the loop itself, not the result slice.
func benchSetup(b *testing.B) (run func(parallelism int)) {
	b.Helper()
	sc := smallScenario(1, 0)
	p := hybridPlacementFor(sc)
	cfg := fastConfig(true)
	cfg.Requests = 200000
	cfg.Warmup = 50000
	cfg.KeepResponseTimes = false
	return func(parallelism int) {
		cfg.Parallelism = parallelism
		var err error
		if parallelism == 0 {
			_, err = Run(context.Background(), sc, p, cfg, xrand.New(9))
		} else {
			_, err = RunParallel(context.Background(), sc, p, cfg, xrand.New(9))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSequential is the baseline the parallel variants are
// judged against (run with -benchmem to see the allocation diet).
func BenchmarkRunSequential(b *testing.B) {
	run := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(0)
	}
}

// BenchmarkRunParallel measures the sharded runner at several worker
// counts; results are bit-identical to the sequential baseline.
func BenchmarkRunParallel(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			run := benchSetup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(par)
			}
		})
	}
}

// BenchmarkRunScale2 times the offline benchmark's simulation instance:
// the §5.1 setup grown twice (100 servers, 40 sites), a hybrid placement,
// 200k warm-up and 800k measured requests. Its per-server caches and the
// sampling tables outgrow the L2 cache, so unlike BenchmarkRunSequential's
// toy instance it shows how the request loop uses memory.
func BenchmarkRunScale2(b *testing.B) {
	sc, err := scenario.Build(scenario.Scale(scenario.Default(), 2))
	if err != nil {
		b.Fatal(err)
	}
	p := hybridPlacementFor(sc)
	cfg := DefaultConfig()
	cfg.Requests, cfg.Warmup, cfg.KeepResponseTimes = 800000, 200000, false
	for _, bc := range []struct {
		name string
		run  func(context.Context, *scenario.Scenario, *core.Placement, Config, *xrand.Source) (*Metrics, error)
	}{{"Run", Run}, {"RunParallel", RunParallel}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(context.Background(), sc, p, cfg, xrand.New(uint64(i+1))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*(cfg.Requests+cfg.Warmup))/b.Elapsed().Seconds(), "req/s")
		})
	}
}
