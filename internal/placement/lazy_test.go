package placement

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/xrand"
)

// The lazy-greedy heaps must reproduce the scanning oracles
// (oracle_test.go) bit for bit: same Step sequence (servers, sites,
// float64 benefits and predicted costs), same final placement, same
// final objective. reflect.DeepEqual on Steps compares the floats
// exactly — any reordering of arithmetic would fail here.

func requireBitIdentical(t *testing.T, scan, lazy *Result) {
	t.Helper()
	if len(scan.Steps) != len(lazy.Steps) {
		t.Fatalf("scan took %d steps, lazy %d", len(scan.Steps), len(lazy.Steps))
	}
	for s := range scan.Steps {
		if scan.Steps[s] != lazy.Steps[s] {
			t.Fatalf("step %d diverges:\n  scan %+v\n  lazy %+v", s, scan.Steps[s], lazy.Steps[s])
		}
	}
	if !reflect.DeepEqual(scan.Steps, lazy.Steps) {
		t.Fatalf("step sequences differ")
	}
	if scan.PredictedCost != lazy.PredictedCost {
		t.Fatalf("predicted cost diverges: scan %v, lazy %v", scan.PredictedCost, lazy.PredictedCost)
	}
	if !reflect.DeepEqual(hasMatrix(scan), hasMatrix(lazy)) {
		t.Fatalf("final placements differ")
	}
}

// requireHeapMatchesOracle runs the hybrid oracle and both cold entry
// points of the heap on one instance and requires all three results to
// be bit-identical; it returns the oracle's.
func requireHeapMatchesOracle(t *testing.T, sys *core.System, cfg HybridConfig) *Result {
	t.Helper()
	scan, err := hybridOracle(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Hybrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, scan, lazy)
	captured, _, stats, err := Incremental(nil, sys, IncrementalConfig{HybridConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm {
		t.Fatal("Incremental with no previous state reported a warm round")
	}
	requireBitIdentical(t, scan, captured)
	return scan
}

// TestLazyMatchesScanGreedy pins the CELF heap to the scanning
// oracle across seeds, capacity fractions, update rates and worker
// counts.
func TestLazyMatchesScanGreedy(t *testing.T) {
	totalSteps := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, capFrac := range []float64{0.05, 0.1, 0.3} {
			for _, withUpdates := range []bool{false, true} {
				for _, par := range []int{1, 8} {
					name := fmt.Sprintf("seed=%d/cap=%v/updates=%v/par=%d", seed, capFrac, withUpdates, par)
					t.Run(name, func(t *testing.T) {
						r := xrand.New(seed)
						sys, _ := randomSystem(r, 14, 9, capFrac)
						var rates []float64
						if withUpdates {
							rates = make([]float64, sys.M())
							for j := range rates {
								rates[j] = 0.3 * r.Float64()
							}
						}
						cfg := GreedyConfig{UpdateRates: rates, Parallelism: par}
						scan := greedyScan(sys, cfg)
						lazy := GreedyGlobalOpts(sys, cfg)
						totalSteps += len(scan.Steps)
						requireBitIdentical(t, scan, lazy)
					})
				}
			}
		}
	}
	if totalSteps == 0 {
		t.Fatal("every grid point degenerated to zero steps")
	}
}

// TestLazyMatchesScanHybrid pins the lazy-deletion heap (its seeded
// cold start and its per-row model-value cache) to the scanning oracle
// across the same grid under every hit-ratio model — the seeds' bound
// leans on each model's monotonicity — through both of its cold entry
// points: Hybrid and Incremental with no previous state (the run that
// also captures a WarmState).
func TestLazyMatchesScanHybrid(t *testing.T) {
	totalSteps := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, capFrac := range []float64{0.05, 0.1, 0.3} {
			for _, withUpdates := range []bool{false, true} {
				for _, par := range []int{1, 8} {
					name := fmt.Sprintf("seed=%d/cap=%v/updates=%v/par=%d", seed, capFrac, withUpdates, par)
					t.Run(name, func(t *testing.T) {
						for _, kind := range lrumodel.ModelKinds() {
							t.Run("model="+string(kind), func(t *testing.T) {
								r := xrand.New(seed)
								sys, specs := randomSystem(r, 14, 9, capFrac)
								cfg := HybridConfig{Specs: specs, AvgObjectBytes: 1, Parallelism: par, Model: string(kind)}
								if withUpdates {
									cfg.UpdateRates = make([]float64, sys.M())
									for j := range cfg.UpdateRates {
										cfg.UpdateRates[j] = 0.3 * r.Float64()
									}
								}
								scan := requireHeapMatchesOracle(t, sys, cfg)
								totalSteps += len(scan.Steps)
							})
						}
					})
				}
			}
		}
	}
	if totalSteps == 0 {
		t.Fatal("every grid point degenerated to zero steps")
	}
}

// TestLazyMatchesScanPaperScale pins the heaps to the oracles at the
// paper's evaluation scale (50 servers, 20 sites), the size the
// acceptance bar names explicitly.
func TestLazyMatchesScanPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale comparison is slow")
	}
	r := xrand.New(1)
	sys, specs := randomSystem(r, 50, 20, 0.1)

	requireBitIdentical(t, greedyScan(sys, GreedyConfig{}), GreedyGlobalOpts(sys, GreedyConfig{}))
	requireHeapMatchesOracle(t, sys, HybridConfig{Specs: specs, AvgObjectBytes: 1})
}

// fuzzInstance decodes a hybrid instance with n, m ≤ 6 from data: one
// byte each for n, m, the mode (bits 0–1 the model kind, bits 2–3 the
// Parallelism, 1, 2 or 4, so the batched model misses fan out; the top
// bit switches update rates on) and the capacity fraction, then server positions, site sizes and
// origin positions, the demand matrix and the update rates. Bytes past
// the end of data read as zero. Sites hold 1 to 256 objects, so one
// object can carry most of a server's traffic and a cache of a few
// slots can hold nearly all of its requested mass — the corner where a
// model's monotonicity in the cache size, which the seeds' bound
// assumes, is easiest to lose.
func fuzzInstance(data []byte) (*core.System, HybridConfig) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, m := 1+next()%6, 1+next()%6
	mode := next()
	kinds := lrumodel.ModelKinds()
	capFrac := 0.02 + float64(next()%64)/128
	sys := &core.System{
		CostServer: make([][]float64, n),
		CostOrigin: make([][]float64, n),
		Demand:     make([][]float64, n),
		SiteBytes:  make([]int64, m),
		Capacity:   make([]int64, n),
	}
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = float64(next() % 32)
	}
	siteObjects := make([]int, m)
	originPos := make([]float64, m)
	var totalBytes int64
	for j := range siteObjects {
		siteObjects[j] = 1 + next()
		sys.SiteBytes[j] = int64(siteObjects[j])
		totalBytes += sys.SiteBytes[j]
		originPos[j] = float64(next() % 32)
	}
	for i := 0; i < n; i++ {
		sys.CostServer[i] = make([]float64, n)
		sys.CostOrigin[i] = make([]float64, m)
		sys.Demand[i] = make([]float64, m)
		sys.Capacity[i] = int64(capFrac * float64(totalBytes))
		for k := range sys.CostServer[i] {
			sys.CostServer[i][k] = math.Abs(pos[i] - pos[k])
		}
		for j := 0; j < m; j++ {
			sys.CostOrigin[i][j] = math.Abs(pos[i]-originPos[j]) + 2
			sys.Demand[i][j] = float64(next()) / 255 / float64(n*m)
		}
	}
	cfg := HybridConfig{
		Specs: specsFor(siteObjects, 1.0, 0), AvgObjectBytes: 1,
		Model: string(kinds[(mode&3)%len(kinds)]), Parallelism: []int{1, 2, 4}[(mode>>2&3)%3],
	}
	if mode&0x80 != 0 {
		cfg.UpdateRates = make([]float64, m)
		for j := range cfg.UpdateRates {
			cfg.UpdateRates[j] = 0.3 * float64(next()) / 255
		}
	}
	return sys, cfg
}

// FuzzHybridMatchesOracle is the differential fuzz of the hybrid heap
// (seeded cold start, lazy verification, eager maintenance) against the
// scanning oracle on small decoded instances: every hit-ratio model,
// with and without update rates, serial and fanned out, bit for bit.
func FuzzHybridMatchesOracle(f *testing.F) {
	r := xrand.New(1)
	for mode := 0; mode < 8; mode++ {
		data := []byte{5, 5, byte(mode%4) | byte(mode%3)<<2 | byte(mode/4)<<7, 12}
		for len(data) < 80 {
			data = append(data, byte(r.Intn(256)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, cfg := fuzzInstance(data)
		if _, err := hybridOracle(sys, cfg); err != nil {
			if _, herr := Hybrid(sys, cfg); herr == nil {
				t.Fatalf("oracle rejected the instance (%v), Hybrid did not", err)
			}
			return
		}
		requireHeapMatchesOracle(t, sys, cfg)
	})
}

// TestLazyHeapOrdering pins the tie-break: equal keys must pop in
// row-major (server, then site) order, matching the scan's strict
// first-maximum rule.
func TestLazyHeapOrdering(t *testing.T) {
	var hp benHeap
	hp.push(benEntry{key: 1, i: 2, j: 1})
	hp.push(benEntry{key: 1, i: 0, j: 3})
	hp.push(benEntry{key: 2, i: 5, j: 5})
	hp.push(benEntry{key: 1, i: 0, j: 1})
	want := []benEntry{
		{key: 2, i: 5, j: 5},
		{key: 1, i: 0, j: 1},
		{key: 1, i: 0, j: 3},
		{key: 1, i: 2, j: 1},
	}
	for _, w := range want {
		if got := hp.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
	}
	if hp.len() != 0 {
		t.Fatalf("heap not drained: %d left", hp.len())
	}
}
