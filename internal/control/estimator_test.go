package control

import (
	"math"
	"sync"
	"testing"
)

func TestEstimatorDemandNormalized(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 3, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Demand(); ok {
		t.Fatal("demand available before any observation")
	}
	e.ObserveN(0, 0, 10)
	e.ObserveN(1, 1, 30)
	e.ObserveN(2, 0, 60)
	if got := e.Roll(); got != 100 {
		t.Fatalf("window total %d, want 100", got)
	}
	d, ok := e.Demand()
	if !ok {
		t.Fatal("no demand after roll")
	}
	sum := 0.0
	for i := range d {
		for j := range d[i] {
			sum += d[i][j]
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("demand sums to %v", sum)
	}
	if math.Abs(d[0][0]-0.1) > 1e-12 || math.Abs(d[1][1]-0.3) > 1e-12 || math.Abs(d[2][0]-0.6) > 1e-12 {
		t.Fatalf("demand %v", d)
	}
}

func TestEstimatorEWMAConverges(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 1, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Seed with a wrong split, then feed the true 3:1 split; the EWMA
	// must converge geometrically.
	e.ObserveN(0, 0, 100)
	e.Roll()
	for r := 0; r < 20; r++ {
		e.ObserveN(0, 0, 300)
		e.ObserveN(0, 1, 100)
		e.Roll()
	}
	d, _ := e.Demand()
	if math.Abs(d[0][0]-0.75) > 1e-4 || math.Abs(d[0][1]-0.25) > 1e-4 {
		t.Fatalf("EWMA did not converge: %v", d)
	}
}

func TestEstimatorFirstRollSeedsEWMA(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 1, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With cold-start bias (rate starting at 0), the first window's
	// estimate would be α times its true rate; seeding makes one window
	// enough.
	e.ObserveN(0, 0, 80)
	e.ObserveN(0, 1, 20)
	e.Roll()
	d, _ := e.Demand()
	if math.Abs(d[0][0]-0.8) > 1e-12 {
		t.Fatalf("first-roll demand %v, want [0.8 0.2]", d)
	}
}

func TestEstimatorSlidingWindowRing(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 1, Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rolls = DefaultWindows + 2
	for r := 1; r <= rolls; r++ {
		e.ObserveN(0, 0, int64(r))
		e.Roll()
	}
	got := e.WindowTotals()
	var want []int64
	for r := rolls - DefaultWindows + 1; r <= rolls; r++ {
		want = append(want, int64(r))
	}
	if len(got) != len(want) {
		t.Fatalf("ring %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ring %v, want %v", got, want)
		}
	}
	if e.Rolls() != rolls {
		t.Fatalf("rolls %d", e.Rolls())
	}
}

func TestEstimatorDropsOutOfRange(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 2, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(-1, 0)
	e.Observe(0, -1)
	e.Observe(2, 0)
	e.Observe(0, 2)
	e.ObserveN(0, 0, -5)
	if e.Observed() != 0 {
		t.Fatalf("out-of-range observations counted: %d", e.Observed())
	}
}

// TestEstimatorSaturates feeds one cell a count at the int64 limit and
// then one more request. The counters must stop at the limit instead of
// wrapping negative, and the estimate must keep reporting a signal while
// ordinary traffic follows.
func TestEstimatorSaturates(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		var est interface {
			ObserveN(server, site int, k int64)
			Roll() int64
			Observed() int64
			Demand() ([][]float64, bool)
		}
		cfg := EstimatorConfig{Servers: 2, Sites: 2}
		var err error
		if sharded {
			est, err = NewShardedEstimator(cfg, 3, 0)
		} else {
			est, err = NewEstimator(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		est.ObserveN(0, 0, math.MaxInt64)
		est.ObserveN(0, 0, 1)
		est.ObserveN(1, 1, math.MaxInt64)
		if got := est.Observed(); got != math.MaxInt64 {
			t.Fatalf("sharded=%v: Observed() = %d after overflowing feeds, want MaxInt64", sharded, got)
		}
		if got := est.Roll(); got != math.MaxInt64 {
			t.Fatalf("sharded=%v: window total %d, want MaxInt64", sharded, got)
		}
		for r := 0; r < 80; r++ {
			d, ok := est.Demand()
			if !ok {
				t.Fatalf("sharded=%v, roll %d: no demand signal", sharded, r)
			}
			for i := range d {
				for j, v := range d[i] {
					if !(v >= 0 && v <= 1) {
						t.Fatalf("sharded=%v, roll %d: demand[%d][%d] = %v", sharded, r, i, j, v)
					}
				}
			}
			est.ObserveN(1, 0, 100)
			if got := est.Roll(); got != 100 {
				t.Fatalf("sharded=%v, roll %d: window total %d, want 100", sharded, r, got)
			}
		}
		if got := est.Observed(); got != math.MaxInt64 {
			t.Fatalf("sharded=%v: Observed() = %d, want MaxInt64", sharded, got)
		}
	}
}

func TestEstimatorConcurrentObserve(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Servers: 4, Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				e.Observe(g%4, k%4)
			}
		}(g)
	}
	wg.Wait()
	if got := e.Roll(); got != 8000 {
		t.Fatalf("concurrent observes lost: %d of 8000", got)
	}
}
