package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/serverutil"
)

// DefaultReportEvery is the demand-report flush cadence an edge falls
// back to when the control plane does not specify one.
const DefaultReportEvery = 500 * time.Millisecond

// EdgeConfig parameterizes a standalone edge component: the engine's
// serving knobs (httpcdn.Config) plus where the edge listens and writes.
type EdgeConfig struct {
	httpcdn.Config
	// ID is this edge's id in 0..Params.Edges-1.
	ID int
	// Addr is the listen address.
	Addr string
	// Tracer, when non-nil, records the engine's span tree per request
	// (serve, health, failover, upstream, retry), stitched across
	// processes by the Traceparent header — the schema cdntrace analyzes.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives lifecycle lines.
	Logf func(format string, args ...any)
}

// Edge is one standalone CDN edge: an httpcdn.Engine behind a real
// listener, fed placement and roster by the control plane and reporting
// its demand back.
type Edge struct {
	params Params
	cfg    EdgeConfig
	sc     *scenario.Scenario
	inj    *fault.Injector
	srv    *serverutil.Server
	reg    *obs.Registry
	client *http.Client // control traffic; the engine has its own
	engine *httpcdn.Engine

	// plMu serializes placement pushes; plVersion gates out-of-order
	// ones.
	plMu      sync.Mutex
	plVersion atomic.Int64

	// roster is the control plane's member view, refreshed by register
	// and report replies and handed to the engine as a fresh snapshot.
	rosterMu  sync.Mutex
	peers     []string // edge id → base URL (includes self), "" = unknown
	originURL string

	// counts accumulates per-site demand between report flushes.
	counts []atomic.Int64

	// reportCancel/reportDone manage the report loop goroutine.
	loopMu       sync.Mutex
	reportCancel context.CancelFunc
	reportDone   chan struct{}
	reportEvery  time.Duration
	controlURL   string

	reports, reportErrs *obs.Counter
	pulls, swaps        *obs.Counter
}

// StartEdge builds the scenario from params and serves it with an empty
// placement (every request is a cache lookup until the control plane
// pushes one). Always Shutdown a started edge.
func StartEdge(params Params, cfg EdgeConfig) (*Edge, error) {
	if cfg.ID < 0 || cfg.ID >= params.Edges {
		return nil, fmt.Errorf("clusterd: edge id %d of %d", cfg.ID, params.Edges)
	}
	sc, err := params.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	reg := cfg.Metrics
	edgeLabel := obs.Labels{"edge": strconv.Itoa(cfg.ID)}
	e := &Edge{
		params:      params,
		cfg:         cfg,
		sc:          sc,
		inj:         fault.NewInjector(),
		reg:         reg,
		client:      &http.Client{Timeout: 30 * time.Second},
		peers:       make([]string, sc.Sys.N()),
		counts:      make([]atomic.Int64, sc.Sys.M()),
		reportEvery: DefaultReportEvery,
		reports:     reg.Counter("cdn_edge_reports_total", "Demand report batches flushed.", edgeLabel),
		reportErrs:  reg.Counter("cdn_edge_report_errors_total", "Demand report batches that failed.", edgeLabel),
		pulls:       reg.Counter("cdn_edge_placement_pulls_total", "Placements pulled after a stale report reply.", edgeLabel),
		swaps:       reg.Counter("cdn_edge_placement_swaps_total", "Placement documents applied.", edgeLabel),
	}
	// Upstream health is private to this process and driven passively by
	// its own fetch outcomes. There is one origin process, so every site
	// shares its tracker.
	peerHealth := make([]*httpcdn.Tracker, sc.Sys.N())
	for i := range peerHealth {
		peerHealth[i] = httpcdn.NewTracker(reg, "edge", i)
	}
	originHealth := make([]*httpcdn.Tracker, sc.Sys.M())
	origin := httpcdn.NewTracker(reg, "origin", 0)
	for j := range originHealth {
		originHealth[j] = origin
	}
	e.engine = httpcdn.NewEngine(httpcdn.EngineConfig{
		Config:   cfg.Config,
		ID:       cfg.ID,
		Scenario: sc,
		// Boot with an empty placement: the cache gets this edge's full
		// capacity until the control plane's document arrives.
		Placement:    placement.None(sc.Sys).Placement,
		Spans:        cfg.Tracer,
		PeerHealth:   peerHealth,
		OriginHealth: originHealth,
		// Local demand tap: flushed to the control plane's sharded
		// estimator by the report loop.
		RequestTap: func(site int) { e.counts[site].Add(1) },
	})

	// /admin/placement and /admin/fault stay outside the injector wrap
	// (a blackholed edge must still accept a placement and the call
	// that clears the fault); the serving path and the health probe
	// target go through it.
	served := http.NewServeMux()
	served.Handle("/obj/", e.engine)
	served.HandleFunc("/admin/ping", servePing)

	mux := serverutil.DebugMux(reg)
	mux.Handle("/obj/", e.inj.Wrap(served))
	mux.Handle("/admin/ping", e.inj.Wrap(served))
	mux.HandleFunc("/admin/placement", e.servePlacement)
	mux.HandleFunc("/admin/fault", serveFault(e.inj))

	srv, err := serverutil.Start(serverutil.Config{Addr: cfg.Addr, Handler: mux, Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	e.srv = srv
	return e, nil
}

// URL returns the edge's base URL.
func (e *Edge) URL() string { return e.srv.URL() }

// ID returns the edge's id.
func (e *Edge) ID() int { return e.cfg.ID }

// Injector returns the edge's fault injector.
func (e *Edge) Injector() *fault.Injector { return e.inj }

// Registry returns the edge's metrics registry.
func (e *Edge) Registry() *obs.Registry { return e.reg }

// Stats returns a snapshot of the edge's serve counters.
func (e *Edge) Stats() httpcdn.EdgeStats { return e.engine.Stats() }

// PlacementVersion returns the version of the applied placement.
func (e *Edge) PlacementVersion() int64 { return e.plVersion.Load() }

// Shutdown stops the report loop, drops the idle upstream connections,
// then drains in-flight requests.
func (e *Edge) Shutdown(ctx context.Context) error {
	e.loopMu.Lock()
	cancel, done := e.reportCancel, e.reportDone
	e.reportCancel, e.reportDone = nil, nil
	e.loopMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	e.engine.CloseIdleConnections()
	return e.srv.Shutdown(ctx)
}

// Register joins the control plane once an origin has: it announces this
// edge's URL, applies the returned placement and roster, and starts the
// background demand-report loop at the cadence the control plane asked
// for.
func (e *Edge) Register(ctx context.Context, controlURL string) error {
	// Wait for the origin to be on the roster first: an edge cannot fill
	// its cache without one, and registering only then makes "every
	// member registered" mean "every edge can serve a miss", whatever
	// order the processes came up in.
	for {
		var m MembersPage
		if err := getJSON(ctx, e.client, controlURL+"/cluster/members", &m); err != nil {
			return err
		}
		if m.OriginURL != "" {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("clusterd: no origin has registered: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
	var resp RegisterResponse
	err := postJSON(ctx, e.client, controlURL+"/cluster/register",
		RegisterRequest{Kind: "edge", ID: e.cfg.ID, URL: e.URL()}, &resp)
	if err != nil {
		return err
	}
	if resp.Params != e.params {
		return fmt.Errorf("clusterd: control plane runs %+v, this edge was built for %+v", resp.Params, e.params)
	}
	e.setRoster(resp.Edges, resp.OriginURL)
	if len(resp.Placement) > 0 {
		if err := e.applyPlacement(PlacementPush{Version: resp.PlacementVersion, Doc: resp.Placement}); err != nil {
			return err
		}
	}
	every := DefaultReportEvery
	if resp.ReportEveryMs > 0 {
		every = time.Duration(resp.ReportEveryMs) * time.Millisecond
	}

	e.loopMu.Lock()
	defer e.loopMu.Unlock()
	e.controlURL = controlURL
	e.reportEvery = every
	if e.reportCancel == nil {
		lctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		e.reportCancel, e.reportDone = cancel, done
		go e.reportLoop(lctx, done)
	}
	return nil
}

// setRoster merges a roster reply into the member view and hands the
// engine a fresh snapshot of it.
func (e *Edge) setRoster(edges []Member, originURL string) {
	e.rosterMu.Lock()
	defer e.rosterMu.Unlock()
	for _, m := range edges {
		if m.ID >= 0 && m.ID < len(e.peers) {
			e.peers[m.ID] = m.URL
		}
	}
	if originURL != "" {
		e.originURL = originURL
	}
	r := httpcdn.Roster{
		Peers:   append([]string(nil), e.peers...),
		Origins: make([]string, e.sc.Sys.M()),
	}
	for j := range r.Origins {
		r.Origins[j] = e.originURL
	}
	e.engine.SetRoster(r)
}

// reportLoop flushes demand deltas to the control plane and pulls the
// placement when the report reply says the local copy is stale — the
// edge's entire steady-state control traffic.
func (e *Edge) reportLoop(ctx context.Context, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(e.reportEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			e.flushReport(context.Background()) // final flush, best effort
			return
		case <-t.C:
			e.flushReport(ctx)
		}
	}
}

// flushReport sends one report batch (even when empty: the reply
// doubles as the roster/placement refresh).
func (e *Edge) flushReport(ctx context.Context) {
	var batch ReportBatch
	batch.Edge = e.cfg.ID
	for j := range e.counts {
		if n := e.counts[j].Swap(0); n > 0 {
			batch.Counts = append(batch.Counts, SiteCount{Site: j, N: n})
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var resp ReportResponse
	if err := postJSON(rctx, e.client, e.controlURL+"/cluster/report", batch, &resp); err != nil {
		// Restore the unsent counts so demand is delayed, not lost.
		for _, c := range batch.Counts {
			e.counts[c.Site].Add(c.N)
		}
		e.reportErrs.Inc()
		if e.cfg.Logf != nil {
			e.cfg.Logf("edge %d: report: %v", e.cfg.ID, err)
		}
		return
	}
	e.reports.Inc()
	e.setRoster(resp.Edges, resp.OriginURL)
	if resp.PlacementVersion > e.plVersion.Load() {
		e.pulls.Inc()
		var push PlacementPush
		err := getJSON(rctx, e.client, e.controlURL+"/cluster/placement", &push)
		if err == nil {
			err = e.applyPlacement(push)
		}
		if err != nil && e.cfg.Logf != nil {
			e.cfg.Logf("edge %d: placement pull: %v", e.cfg.ID, err)
		}
	}
}

// applyPlacement swaps in a pushed placement document. Pushes at or
// below the applied version are ignored (idempotent replay, reordered
// delivery); the cache is resized to the new replica set's free space.
func (e *Edge) applyPlacement(push PlacementPush) error {
	p, err := core.LoadJSON(e.sc.Sys, bytes.NewReader(push.Doc))
	if err != nil {
		return err
	}
	e.plMu.Lock()
	defer e.plMu.Unlock()
	if push.Version <= e.plVersion.Load() {
		return nil
	}
	e.engine.SetPlacement(p)
	e.plVersion.Store(push.Version)
	e.swaps.Inc()
	return nil
}

// servePlacement handles the control plane's swap push (POST) and
// serves the applied document back (GET) for debugging.
func (e *Edge) servePlacement(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var push PlacementPush
		if !decodeBody(w, r, bodyLimit(e.sc.Sys.N()*e.sc.Sys.M()), &push) {
			return
		}
		if err := e.applyPlacement(push); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "placement version %d applied\n", e.plVersion.Load())
	case http.MethodGet:
		var doc bytes.Buffer
		if err := e.engine.Placement().SaveJSON(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(PlacementPush{Version: e.plVersion.Load(), Doc: doc.Bytes()})
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}
