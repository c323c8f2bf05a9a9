package clusterd

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/control"
)

// BenchmarkReconcileRotation times control rounds that each push a new
// placement: a two-edge deployment with hysteresis and cool-downs off
// (the churn settings), whose demand rotates by one site before every
// round. Beside ns/op it reports the median push, propose and price
// phases of the applied rounds the audit ring still holds (the last
// 64), the budget a change to the round is measured against.
func BenchmarkReconcileRotation(b *testing.B) {
	l, err := StartLocal(Params{Edges: 2, Seed: 1, CapacityFrac: 0.15},
		ControlConfig{Interval: time.Hour, Hysteresis: -1, CooldownRounds: -1},
		OriginConfig{}, EdgeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Shutdown(ctx)
	}()
	cp := l.Control
	sys := cp.sc.Sys
	n, m := sys.N(), sys.M()
	applied := 0
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if c := int64(sys.Demand[i][j] * 1e4); c > 0 {
					cp.Controller().Estimator().ObserveN(i, (j+k+1)%m, c)
				}
			}
		}
		b.StartTimer()
		rep, err := cp.Controller().Reconcile()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Outcome == control.OutcomeApplied {
			applied++
		}
	}
	b.StopTimer()
	if applied == 0 {
		b.Fatal("no round applied a plan")
	}
	var push, propose, price []float64
	for _, rec := range cp.Controller().Audit() {
		if rec.Outcome != control.OutcomeApplied {
			continue
		}
		push = append(push, rec.PhaseMs.Push)
		propose = append(propose, rec.PhaseMs.Propose)
		price = append(price, rec.PhaseMs.Price)
	}
	b.ReportMetric(medianOf(push), "push_ms")
	b.ReportMetric(medianOf(propose), "propose_ms")
	b.ReportMetric(medianOf(price), "price_ms")
}

// medianOf sorts xs in place and returns its middle element (the upper
// one of an even count), or 0 when xs is empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
