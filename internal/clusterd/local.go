package clusterd

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// Local is a whole deployment — control plane, origin and every edge of
// params — behind loopback listeners of one process: what cmd/cdnd
// launches with no role and this package's tests boot. The components
// are the ones `cdnd control|origin|edge` run, and speak to each other
// over the same HTTP protocol.
type Local struct {
	Control *ControlPlane
	Origin  *Origin
	Edges   []*Edge
}

// StartLocal boots the deployment in dependency order — control plane,
// origin, then edges 0..params.Edges-1, each registered before the next
// starts — and returns once every edge knows the full roster. The
// control plane listens on ccfg.Addr (empty: a free loopback port), the
// origin and the edges on free loopback ports; ecfg's ID and Addr are
// filled in per edge. Always Shutdown a started deployment.
func StartLocal(params Params, ccfg ControlConfig, ocfg OriginConfig, ecfg EdgeConfig) (*Local, error) {
	const loopback = "127.0.0.1:0"
	if ccfg.Addr == "" {
		ccfg.Addr = loopback
	}
	cp, err := StartControl(params, ccfg)
	if err != nil {
		return nil, err
	}
	l := &Local{Control: cp}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fail := func(err error) (*Local, error) {
		l.Shutdown(ctx)
		return nil, err
	}
	ocfg.Addr = loopback
	if l.Origin, err = StartOrigin(params, ocfg); err != nil {
		return fail(err)
	}
	if err := l.Origin.Register(ctx, nil, cp.URL()); err != nil {
		return fail(err)
	}
	for i := 0; i < params.Edges; i++ {
		ecfg.ID, ecfg.Addr = i, loopback
		e, err := StartEdge(params, ecfg)
		if err != nil {
			return fail(err)
		}
		l.Edges = append(l.Edges, e)
		if err := e.Register(ctx, cp.URL()); err != nil {
			return fail(err)
		}
	}
	// An edge learns of the edges that registered after it from a report
	// reply; ask for one now rather than on the first tick, so peer
	// fetches work from the first client request.
	for _, e := range l.Edges {
		e.flushReport(ctx)
	}
	return l, nil
}

// Shutdown drains the edges, the origin and the control plane, in that
// order, and returns what failed to stop.
func (l *Local) Shutdown(ctx context.Context) error {
	// A connection a component's transport dialled and never used would
	// hold its server's Shutdown for the five seconds net/http grants
	// one: the control traffic's shared transport here, every engine's
	// own before the first edge stops.
	http.DefaultClient.CloseIdleConnections()
	for _, e := range l.Edges {
		e.engine.CloseIdleConnections()
	}
	var errs []error
	for _, e := range l.Edges {
		errs = append(errs, e.Shutdown(ctx))
	}
	if l.Origin != nil {
		errs = append(errs, l.Origin.Shutdown(ctx))
	}
	return errors.Join(append(errs, l.Control.Shutdown(ctx))...)
}
