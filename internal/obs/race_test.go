package obs

import (
	"bytes"
	"io"
	"math"
	"sync"
	"testing"
)

// TestConcurrentIncrements hammers every metric kind from many
// goroutines; run under `go test -race` it doubles as the data-race
// proof that instrumentation can stay always-on in the serving path.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines, perG = 8, 10000
	reg := NewRegistry()
	tr := NewTracer(io.Discard)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Get-or-create races with other goroutines on purpose.
			c := reg.Counter("race_total", "", nil)
			gauge := reg.Gauge("race_gauge", "", nil)
			h := reg.Histogram("race_hist", "", nil, []float64{1, 10, 100})
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Add(1)
				h.Observe(float64(i % 150))
				if i%1000 == 0 {
					id := uint64(tr.NextID())
					tr.EmitSpan(Span{Trace: DeterministicTraceID(id), Span: DeterministicSpanID(id), Kind: SpanServe, Edge: g})
				}
			}
		}(g)
	}
	// Concurrent renders must also be safe.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			for i := 0; i < 50; i++ {
				b.Reset()
				if err := reg.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if err := reg.WriteJSON(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = goroutines * perG
	if got := reg.Counter("race_total", "", nil).Value(); got != total {
		t.Errorf("counter = %d, want %d (lost updates)", got, total)
	}
	if got := reg.Gauge("race_gauge", "", nil).Value(); got != total {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	h := reg.Histogram("race_hist", "", nil, []float64{1, 10, 100})
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	var wantSum float64
	for i := 0; i < perG; i++ {
		wantSum += float64(i % 150)
	}
	wantSum *= goroutines
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %v, want %v (lost CAS updates)", h.Sum(), wantSum)
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("tracer error: %v", err)
	}
}
