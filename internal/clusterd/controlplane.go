package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/serverutil"
)

// Control-plane defaults.
const (
	// Deprecated: the demand estimate is one control.Estimator. The
	// benchmark's estimator probe still passes this shard count, which
	// changes nothing; ROADMAP item 6(c) deletes it.
	DefaultShards = 4
	// DefaultProbeEvery / DefaultProbeTimeout drive the active health
	// prober.
	DefaultProbeEvery   = 500 * time.Millisecond
	DefaultProbeTimeout = time.Second
)

// ControlConfig parameterizes the control-plane component.
type ControlConfig struct {
	// Addr is the listen address.
	Addr string
	// Interval is the reconcile cadence (0 = 2s).
	Interval time.Duration
	// ReportEvery is the demand-report cadence handed to registering
	// edges (0 = DefaultReportEvery).
	ReportEvery time.Duration
	// ProbeEvery / ProbeTimeout drive the active /admin/ping prober;
	// FailThreshold consecutive probe failures eject a member. An
	// ejected member is probed again every ProbeEvery, so that is also
	// its tracker's retry window.
	ProbeEvery    time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	// Controller knobs, passed through to control.Config.
	Hysteresis     float64
	CooldownRounds int
	// Model selects the analytical hit-ratio model for the initial
	// placement and every reconcile ("" = eq1).
	Model string
	// Metrics receives the control_* and cluster series; nil builds a
	// private registry.
	Metrics *obs.Registry
	// Logf, when non-nil, receives lifecycle and reconcile lines.
	Logf func(format string, args ...any)
}

// ControlPlane is the deployment's brain: scenario owner, registry of
// members, demand estimator, reconcile loop and active prober.
type ControlPlane struct {
	params Params
	cfg    ControlConfig
	sc     *scenario.Scenario
	reg    *obs.Registry
	ctrl   *control.Controller
	target *pushTarget
	srv    *serverutil.Server
	client *http.Client

	mu        sync.Mutex
	edgeURLs  []string // by edge id; "" until registered
	originURL string

	// trackers[i] is edge i's probe-driven health state.
	trackers []*httpcdn.Tracker

	cancel context.CancelFunc
	done   sync.WaitGroup

	registered  *obs.Gauge
	reports     *obs.Counter
	pushes      *obs.Counter
	pushErrs    *obs.Counter
	probeFails  *obs.Counter
	probeRounds *obs.Counter
}

// StartControl builds the scenario, computes the initial hybrid
// placement, and serves the cluster and debug endpoints. Always
// Shutdown a started control plane.
func StartControl(params Params, cfg ControlConfig) (*ControlPlane, error) {
	sc, err := params.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.ReportEvery <= 0 {
		cfg.ReportEvery = DefaultReportEvery
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	// The initial placement is the offline hybrid solution on the
	// scenario's synthetic demand; the estimator's live view takes over
	// from the first reconcile.
	res, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
		Model:          cfg.Model,
	})
	if err != nil {
		return nil, err
	}

	cp := &ControlPlane{
		params:   params,
		cfg:      cfg,
		sc:       sc,
		reg:      reg,
		client:   &http.Client{Timeout: 10 * time.Second},
		edgeURLs: make([]string, sc.Sys.N()),
		registered: reg.Gauge("cdn_cluster_registered_edges",
			"Edges currently registered with the control plane.", nil),
		reports: reg.Counter("cdn_cluster_report_batches_total",
			"Demand report batches received from edges.", nil),
		pushes: reg.Counter("cdn_cluster_placement_pushes_total",
			"Placement documents pushed to edges.", nil),
		pushErrs: reg.Counter("cdn_cluster_placement_push_errors_total",
			"Placement pushes that failed (the edge catches up via pull).", nil),
		probeFails: reg.Counter("cdn_cluster_probe_failures_total",
			"Active health probes that failed.", nil),
		probeRounds: reg.Counter("cdn_cluster_probe_rounds_total",
			"Active health probe sweeps completed.", nil),
	}
	for i := 0; i < sc.Sys.N(); i++ {
		cp.trackers = append(cp.trackers, httpcdn.NewTracker(reg, "edge", i))
	}
	cp.target = &pushTarget{cp: cp}
	if _, err := cp.target.set(res.Placement, 1); err != nil {
		return nil, err
	}

	cp.ctrl, err = control.New(control.Config{
		Base:           sc.Sys,
		Specs:          sc.Work.Specs(),
		AvgObjectBytes: sc.Work.AvgObjectBytes,
		Model:          cfg.Model,
		Target:         cp.target,
		Health:         cp,
		Interval:       cfg.Interval,
		Hysteresis:     cfg.Hysteresis,
		CooldownRounds: cfg.CooldownRounds,
		Metrics:        reg,
		Logf:           cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	mux := serverutil.DebugMux(reg)
	mux.HandleFunc("/cluster/config", cp.serveConfig)
	mux.HandleFunc("/cluster/register", cp.serveRegister)
	mux.HandleFunc("/cluster/report", cp.serveReport)
	mux.HandleFunc("/cluster/placement", cp.servePlacement)
	mux.HandleFunc("/cluster/members", cp.serveMembers)
	h := control.Handler(cp.ctrl)
	mux.Handle("/debug/control", h)
	mux.Handle("/debug/control/audit", h)
	mux.Handle("/debug/control/reconcile", h)
	mux.HandleFunc("/debug/health", cp.serveHealth)

	srv, err := serverutil.Start(serverutil.Config{Addr: cfg.Addr, Handler: mux, Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	cp.srv = srv

	ctx, cancel := context.WithCancel(context.Background())
	cp.cancel = cancel
	cp.done.Add(2)
	go func() { defer cp.done.Done(); cp.ctrl.Run(ctx) }()
	go func() { defer cp.done.Done(); cp.probeLoop(ctx) }()
	return cp, nil
}

// URL returns the control plane's base URL.
func (cp *ControlPlane) URL() string { return cp.srv.URL() }

// Controller returns the reconcile controller (tests and debugging).
func (cp *ControlPlane) Controller() *control.Controller { return cp.ctrl }

// Registry returns the control plane's metrics registry.
func (cp *ControlPlane) Registry() *obs.Registry { return cp.reg }

// Placement returns the live placement and its version.
func (cp *ControlPlane) Placement() (*core.Placement, int64) { return cp.target.snapshot() }

// Shutdown stops the reconcile and probe loops, then drains the server.
func (cp *ControlPlane) Shutdown(ctx context.Context) error {
	cp.cancel()
	cp.done.Wait()
	return cp.srv.Shutdown(ctx)
}

// EjectedEdges implements control.HealthView: an edge is excluded from
// placement while it has never registered or while the probe-driven
// tracker holds it ejected.
func (cp *ControlPlane) EjectedEdges() []int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var out []int
	for i, url := range cp.edgeURLs {
		if url == "" || cp.trackers[i].IsEjected() {
			out = append(out, i)
		}
	}
	return out
}

// probeLoop actively GETs every registered edge's /admin/ping. The
// probe goes through the edge's fault injector, so an injected error or
// blackhole "kills" the edge from the control plane's point of view:
// FailThreshold failed probes eject it (excluding it from the next
// reconcile's placement), and the first successful probe after the
// fault clears readmits it. Transitions unfreeze and kick the
// controller: the failure-reactive path.
func (cp *ControlPlane) probeLoop(ctx context.Context) {
	t := time.NewTicker(cp.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cp.mu.Lock()
		targets := append([]string(nil), cp.edgeURLs...)
		cp.mu.Unlock()
		for i, url := range targets {
			if url == "" {
				continue
			}
			cp.probeOne(ctx, i, url)
		}
		cp.probeRounds.Inc()
	}
}

// probeOne probes one edge and feeds the outcome to its tracker.
func (cp *ControlPlane) probeOne(ctx context.Context, id int, url string) {
	pctx, cancel := context.WithTimeout(ctx, cp.cfg.ProbeTimeout)
	defer cancel()
	ok := false
	if req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/admin/ping", nil); err == nil {
		if resp, err := cp.client.Do(req); err == nil {
			// Read to the end, or closing the body closes the connection
			// and the next probe, and the next placement push, dial anew.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	t := cp.trackers[id]
	if ok {
		if t.IsEjected() {
			t.Success()
			cp.onHealthChange(id, false)
		} else {
			t.Success()
		}
		return
	}
	cp.probeFails.Inc()
	if t.Failure(cp.cfg.FailThreshold, cp.cfg.ProbeEvery, time.Now()) {
		cp.onHealthChange(id, true)
	}
}

// onHealthChange reacts to a probe-driven transition: log, unfreeze
// cooldowns on recovery, and reconcile out of band.
func (cp *ControlPlane) onHealthChange(id int, ejected bool) {
	if cp.cfg.Logf != nil {
		if ejected {
			cp.cfg.Logf("control: edge %d ejected (probes failing)", id)
		} else {
			cp.cfg.Logf("control: edge %d readmitted", id)
		}
	}
	if !ejected {
		cp.ctrl.Unfreeze()
	}
	cp.ctrl.Kick()
}

// roster snapshots the member view for wire replies. Caller must not
// hold cp.mu.
func (cp *ControlPlane) roster() (edges []Member, originURL string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for i, url := range cp.edgeURLs {
		if url != "" {
			edges = append(edges, Member{ID: i, URL: url})
		}
	}
	return edges, cp.originURL
}

// serveConfig answers GET /cluster/config with the deployment Params.
func (cp *ControlPlane) serveConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, cp.params)
}

// serveRegister admits a component into the roster and hands it the
// scenario, the live placement and the report cadence.
func (cp *ControlPlane) serveRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RegisterRequest
	if !decodeBody(w, r, bodyLimit(0), &req) {
		return
	}
	if req.URL == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	switch req.Kind {
	case "edge":
		if req.ID < 0 || req.ID >= cp.sc.Sys.N() {
			http.Error(w, fmt.Sprintf("edge id %d out of range [0,%d)", req.ID, cp.sc.Sys.N()), http.StatusBadRequest)
			return
		}
		cp.mu.Lock()
		fresh := cp.edgeURLs[req.ID] == ""
		cp.edgeURLs[req.ID] = req.URL
		var n int64
		for _, u := range cp.edgeURLs {
			if u != "" {
				n++
			}
		}
		cp.mu.Unlock()
		cp.registered.Set(n)
		if fresh {
			if cp.cfg.Logf != nil {
				cp.cfg.Logf("control: edge %d registered at %s (%d/%d up)", req.ID, req.URL, n, cp.sc.Sys.N())
			}
			// New capacity: re-place without waiting for the tick.
			cp.ctrl.Unfreeze()
			cp.ctrl.Kick()
		}
	case "origin":
		cp.mu.Lock()
		cp.originURL = req.URL
		cp.mu.Unlock()
		if cp.cfg.Logf != nil {
			cp.cfg.Logf("control: origin registered at %s", req.URL)
		}
	default:
		http.Error(w, fmt.Sprintf("unknown kind %q", req.Kind), http.StatusBadRequest)
		return
	}
	edges, originURL := cp.roster()
	p, version := cp.target.snapshot()
	var doc bytes.Buffer
	if err := p.SaveJSON(&doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, RegisterResponse{
		Params:           cp.params,
		OriginURL:        originURL,
		Edges:            edges,
		PlacementVersion: version,
		Placement:        doc.Bytes(),
		ReportEveryMs:    cp.cfg.ReportEvery.Milliseconds(),
	})
}

// serveReport ingests an edge's demand deltas into the controller's
// estimator and piggybacks the roster/placement-version refresh.
func (cp *ControlPlane) serveReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var batch ReportBatch
	if !decodeBody(w, r, bodyLimit(cp.sc.Sys.M()), &batch) {
		return
	}
	if batch.Edge < 0 || batch.Edge >= cp.sc.Sys.N() {
		http.Error(w, "bad edge id", http.StatusBadRequest)
		return
	}
	for _, c := range batch.Counts {
		if c.Site < 0 || c.Site >= cp.sc.Sys.M() || c.N < 1 || c.N > MaxReportCount {
			http.Error(w, fmt.Sprintf("bad count %d for site %d", c.N, c.Site), http.StatusBadRequest)
			return
		}
	}
	est := cp.ctrl.Estimator()
	for _, c := range batch.Counts {
		est.ObserveN(batch.Edge, c.Site, c.N)
	}
	cp.reports.Inc()
	edges, originURL := cp.roster()
	_, version := cp.target.snapshot()
	writeJSON(w, ReportResponse{
		PlacementVersion: version,
		OriginURL:        originURL,
		Edges:            edges,
	})
}

// servePlacement answers GET /cluster/placement with the live document:
// the body the last swap pushed.
func (cp *ControlPlane) servePlacement(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(cp.target.pushBody())
}

// serveMembers answers GET /cluster/members.
func (cp *ControlPlane) serveMembers(w http.ResponseWriter, r *http.Request) {
	edges, originURL := cp.roster()
	writeJSON(w, MembersPage{
		Params:    cp.params,
		OriginURL: originURL,
		Edges:     edges,
		Expected:  cp.sc.Sys.N(),
	})
}

// serveHealth answers GET /debug/health with the probe-driven member
// view as an httpcdn.HealthReport; edges that never registered report
// state "unregistered".
func (cp *ControlPlane) serveHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	now := time.Now()
	cp.mu.Lock()
	var rep httpcdn.HealthReport
	for i, t := range cp.trackers {
		s := t.Snapshot("edge", i, now)
		if cp.edgeURLs[i] == "" {
			s.State = "unregistered"
		}
		rep.Edges = append(rep.Edges, s)
	}
	cp.mu.Unlock()
	writeJSON(w, rep)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// pushTimeout bounds one placement push to one edge.
const pushTimeout = 2 * time.Second

// pushTarget implements control.Target for the multi-process cluster:
// SwapPlacement stores the new placement under a bumped version,
// encodes its PlacementPush once, and posts that body to every
// registered edge at once. A push that fails is counted and logged,
// never fatal — the edge's next report reply carries the new version
// and it pulls the same body from GET /cluster/placement.
type pushTarget struct {
	cp      *ControlPlane
	mu      sync.Mutex
	p       *core.Placement
	version int64
	body    []byte // the JSON PlacementPush of (version, p)
}

// set installs p as the live placement at version and encodes its push
// body.
func (t *pushTarget) set(p *core.Placement, version int64) ([]byte, error) {
	var doc bytes.Buffer
	if err := p.SaveJSON(&doc); err != nil {
		return nil, err
	}
	body, err := json.Marshal(PlacementPush{Version: version, Doc: doc.Bytes()})
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p, t.version, t.body = p, version, body
	return body, nil
}

// snapshot returns the live placement and version.
func (t *pushTarget) snapshot() (*core.Placement, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p, t.version
}

// pushBody returns the live placement's encoded PlacementPush.
func (t *pushTarget) pushBody() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.body
}

// Placement implements control.Target.
func (t *pushTarget) Placement() *core.Placement {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
}

// SwapPlacement implements control.Target. The controller serializes
// its calls, so the version it bumps is read outside the lock. It
// returns once every edge has answered or timed out: a hung edge costs
// the round one pushTimeout, however many edges hang.
func (t *pushTarget) SwapPlacement(p *core.Placement) error {
	_, version := t.snapshot()
	version++
	body, err := t.set(p, version)
	if err != nil {
		return err
	}
	push := func(m Member) {
		ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
		defer cancel()
		if err := doJSON(ctx, t.cp.client, http.MethodPost, m.URL+"/admin/placement", bytes.NewReader(body), nil); err != nil {
			t.cp.pushErrs.Inc()
			if t.cp.cfg.Logf != nil {
				t.cp.cfg.Logf("control: push v%d to edge %d: %v", version, m.ID, err)
			}
			return
		}
		t.cp.pushes.Inc()
	}
	edges, _ := t.cp.roster()
	if len(edges) == 0 {
		return nil
	}
	// The calling goroutine pushes to the first edge itself.
	var wg sync.WaitGroup
	wg.Add(len(edges) - 1)
	for _, m := range edges[1:] {
		go func(m Member) {
			defer wg.Done()
			push(m)
		}(m)
	}
	push(edges[0])
	wg.Wait()
	return nil
}
