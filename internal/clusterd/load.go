package clusterd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// LoadConfig parameterizes a load-generation run against a deployed
// cluster.
type LoadConfig struct {
	// ControlURL is the control plane's base URL; the generator
	// bootstraps its edge roster from GET /cluster/members.
	ControlURL string
	// Requests is the total request count across all workers.
	Requests int
	// Workers is the number of concurrent client workers, each with its
	// own deterministic request stream (0 = 4); they share one latency
	// histogram.
	Workers int
	// Seed derives the per-worker request streams (worker w uses
	// Seed+1000+w), independent of the scenario seed.
	Seed uint64
	// FaultMode, unless "" or "off", is injected into edge FaultEdge's
	// fault injector before the request whose 0-based global index is
	// FaultAt, and cleared before request ClearAt (ClearAt <= FaultAt:
	// never) — the chaos drill: kill an edge mid-run and require zero
	// lost requests. RunLoad rejects a mode fault.ParseMode does not
	// know and a FaultAt outside [0, Requests), drills that would
	// inject nothing.
	FaultEdge int
	FaultMode string
	FaultAt   int
	ClearAt   int
	// StaleLinkFrac, in [0,1), aims that fraction of requests at sites
	// outside the catalog — the stale-link traffic a churning catalog
	// produces after sites perish. These must come back as clean 404s
	// (counted in LoadResult.NotFound), never as errors.
	StaleLinkFrac float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// LatencySummary is the merged latency view in milliseconds.
type LatencySummary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// FaultSummary records the chaos drill a run performed.
type FaultSummary struct {
	Edge    int    `json:"edge"`
	Mode    string `json:"mode"`
	At      int    `json:"at"`
	ClearAt int    `json:"clear_at"`
}

// LoadResult is the measured outcome of a load run — the schema of
// BENCH_cluster.json.
type LoadResult struct {
	Params    Params  `json:"params"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// ErrorClasses breaks Errors down by httpcdn.ErrorClass of the last
	// failure of each lost request (origin-down, peer-down, timeout,
	// corrupt-payload, ...).
	ErrorClasses map[string]int64 `json:"error_classes,omitempty"`
	// Steered counts requests served by an edge other than their
	// nearest: it failed them, or its health tracker had ejected it.
	Steered int64 `json:"steered"`
	// NotFound counts deliberate stale-link requests (StaleLinkFrac)
	// that the edge answered 404, as it should.
	NotFound   int64            `json:"not_found,omitempty"`
	DurationMs float64          `json:"duration_ms"`
	ReqPerSec  float64          `json:"req_per_sec"`
	Latency    LatencySummary   `json:"latency_ms"`
	BySource   map[string]int64 `json:"by_source"`
	Workers    int              `json:"workers"`
	Edges      int              `json:"edges"`
	Fault      *FaultSummary    `json:"fault,omitempty"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
}

// WaitMembers polls GET /cluster/members until every expected edge and
// the origin have registered, or ctx expires.
func WaitMembers(ctx context.Context, client *http.Client, controlURL string) (MembersPage, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	var last error
	for {
		var m MembersPage
		err := getJSON(ctx, client, controlURL+"/cluster/members", &m)
		if err == nil && len(m.Edges) == m.Expected && m.OriginURL != "" {
			return m, nil
		}
		if err != nil {
			last = err
		} else {
			last = fmt.Errorf("cluster not ready: %d/%d edges, origin %q", len(m.Edges), m.Expected, m.OriginURL)
		}
		select {
		case <-ctx.Done():
			return MembersPage{}, fmt.Errorf("clusterd: waiting for members: %w (last: %v)", ctx.Err(), last)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// loadWorker is one client's slice of the run. The workers observe
// their latencies into one shared histogram.
type loadWorker struct {
	hist     *obs.Histogram
	max      float64
	by       map[string]int64
	errClass map[string]int64 // lost requests by httpcdn.ErrorClass
	steered  int64
	notFound int64
}

// RunLoad drives Requests Zipf-popular requests at the cluster behind
// ControlURL from Workers concurrent clients over persistent
// connections, optionally running the chaos drill, and returns the
// merged measurements. Each request goes to the edge the workload model
// says the client is nearest to; on failure the client steers to the
// remaining edges nearest-first, and an edge that keeps failing is
// ejected for a while, so a single faulted edge costs some latency,
// not availability.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("clusterd: %d requests", cfg.Requests)
	}
	if cfg.StaleLinkFrac < 0 || cfg.StaleLinkFrac >= 1 {
		return nil, fmt.Errorf("clusterd: stale-link fraction %v outside [0,1)", cfg.StaleLinkFrac)
	}
	mode, ok := fault.ParseMode(cfg.FaultMode)
	switch {
	case !ok && cfg.FaultMode != "": // "" parses as ModeOff, not ok
		return nil, fmt.Errorf("clusterd: fault mode %q (want off, error, latency or blackhole)", cfg.FaultMode)
	case mode != fault.ModeOff && (cfg.FaultAt < 0 || cfg.FaultAt >= cfg.Requests):
		return nil, fmt.Errorf("clusterd: fault at request %d outside [0,%d)", cfg.FaultAt, cfg.Requests)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Workers > cfg.Requests {
		cfg.Workers = cfg.Requests
	}
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * cfg.Workers,
			MaxIdleConnsPerHost: cfg.Workers,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	// A pooled connection that was dialled and never used would otherwise
	// stall the shutdown of the edge it points at.
	defer client.CloseIdleConnections()
	members, err := WaitMembers(ctx, client, cfg.ControlURL)
	if err != nil {
		return nil, err
	}
	sc, err := members.Params.Build()
	if err != nil {
		return nil, err
	}
	edgeURL := make([]string, sc.Sys.N())
	for _, m := range members.Edges {
		if m.ID >= 0 && m.ID < len(edgeURL) {
			edgeURL[m.ID] = m.URL
		}
	}
	// One passive health tracker per edge, shared by the workers and fed
	// by every attempt (do).
	health := make([]httpcdn.Tracker, sc.Sys.N())

	var drill *FaultSummary
	if mode != fault.ModeOff {
		if cfg.FaultEdge < 0 || cfg.FaultEdge >= len(edgeURL) {
			return nil, fmt.Errorf("clusterd: fault edge %d out of range", cfg.FaultEdge)
		}
		drill = &FaultSummary{Edge: cfg.FaultEdge, Mode: cfg.FaultMode, At: cfg.FaultAt, ClearAt: cfg.ClearAt}
	}
	// A fault the edge did not take fails the run: a drill that injected
	// nothing would otherwise pass. One worker sets it, one clears it.
	faultErrs := make(chan error, 2)

	// 50µs .. ~6.5s in ms, fine enough that p99 interpolation is tight
	// at loopback latencies.
	hist := obs.NewHistogram(obs.ExponentialBuckets(0.05, 1.35, 40))
	workers := make([]*loadWorker, cfg.Workers)
	var seq atomic.Int64 // requests drawn so far; drives the fault schedule
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		lw := &loadWorker{hist: hist, by: make(map[string]int64), errClass: make(map[string]int64)}
		workers[w] = lw
		n := cfg.Requests / cfg.Workers
		if w < cfg.Requests%cfg.Workers {
			n++
		}
		stream := workload.NewStream(sc.Work, xrand.New(cfg.Seed+1000+uint64(w)))
		// staleRNG drives the stale-link coin flips, split off so the
		// object stream stays identical whether or not they are enabled.
		staleRNG := xrand.New(cfg.Seed + 2000 + uint64(w))
		wg.Add(1)
		go func(lw *loadWorker, stream *workload.Stream, n int) {
			defer wg.Done()
			for r := 0; r < n; r++ {
				if ctx.Err() != nil {
					lw.errClass["cancelled"] += int64(n - r)
					return
				}
				index := int(seq.Add(1)) - 1
				if drill != nil && (index == drill.At || index == drill.ClearAt && drill.ClearAt > drill.At) {
					mode := drill.Mode
					if index != drill.At {
						mode = "off"
					}
					if err := setFault(ctx, client, edgeURL[drill.Edge], mode); err != nil {
						faultErrs <- err
					}
					if cfg.Logf != nil {
						cfg.Logf("load: request %d: fault on edge %d set to %s", index, drill.Edge, mode)
					}
				}
				req := stream.Next()
				if cfg.StaleLinkFrac > 0 && staleRNG.Float64() < cfg.StaleLinkFrac {
					// A stale link: same client, but the site has left
					// the catalog. The edge must answer 404.
					lw.doStale(ctx, client, sc.Sys.M(), edgeURL, req)
					continue
				}
				lw.do(ctx, client, sc.Sys, edgeURL, health, req)
			}
		}(lw, stream, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-faultErrs:
		return nil, err
	default:
	}

	res := &LoadResult{
		Params:       members.Params,
		Workers:      cfg.Workers,
		Edges:        len(members.Edges),
		Fault:        drill,
		BySource:     make(map[string]int64),
		ErrorClasses: make(map[string]int64),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
	}
	for _, lw := range workers {
		for class, n := range lw.errClass {
			res.Errors += n
			res.ErrorClasses[class] += n
		}
		res.Steered += lw.steered
		res.NotFound += lw.notFound
		for src, n := range lw.by {
			res.BySource[src] += n
		}
		if lw.max > res.Latency.Max {
			res.Latency.Max = lw.max
		}
	}
	res.Requests = int64(cfg.Requests)
	res.ErrorRate = float64(res.Errors) / float64(res.Requests)
	res.DurationMs = float64(elapsed.Nanoseconds()) / 1e6
	res.ReqPerSec = float64(res.Requests) / elapsed.Seconds()
	res.Latency.P50 = hist.Quantile(0.50)
	res.Latency.P95 = hist.Quantile(0.95)
	res.Latency.P99 = hist.Quantile(0.99)
	return res, nil
}

// do issues one request, steering across the edges nearest-first from
// the client's own (core's rule) until one answers. An edge its tracker
// ejected is passed over bar its half-open probe, so a blackholed edge
// costs the client's timeout a few times, not once per request. The
// full attempt chain is timed as one client-visible latency observation.
func (lw *loadWorker) do(ctx context.Context, client *http.Client, sys *core.System, edgeURL []string, health []httpcdn.Tracker, req workload.Request) {
	t0 := time.Now()
	tried := make([]bool, len(edgeURL))
	offered := func(k int) bool { return !tried[k] && edgeURL[k] != "" && health[k].Candidate(time.Now()) }
	err := httpcdn.ErrEdgeDown // what a request loses with every edge ejected
	for k, _ := sys.NearestServer(req.Server, offered); k >= 0; k, _ = sys.NearestServer(req.Server, offered) {
		tried[k] = true
		if !health[k].AcquireProbe(time.Now()) {
			continue // another worker holds its probe
		}
		var res httpcdn.FetchResult
		if res, err = httpcdn.Get(ctx, client, edgeURL[k], req.Site, req.Object); err != nil {
			health[k].Failure(httpcdn.DefaultFailThreshold, httpcdn.DefaultEjectFor, time.Now())
			continue
		}
		health[k].Success()
		if k != req.Server { // the stream draws from the deployment's own scenario
			lw.steered++
		}
		lw.observe(t0)
		lw.by[res.Source]++
		return
	}
	lw.fail(err)
}

// fail counts one lost request under its error class.
func (lw *loadWorker) fail(err error) { lw.errClass[httpcdn.ErrorClass(err)]++ }

// observe records one client-visible latency.
func (lw *loadWorker) observe(t0 time.Time) {
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	lw.hist.Observe(ms)
	if ms > lw.max {
		lw.max = ms
	}
}

// doStale issues one request for a site outside the catalog and
// requires a 404 — anything else (a 200 for a nonexistent site, a
// transport failure) is an error. The round trip is timed like any
// other request: stale links cost clients real latency.
func (lw *loadWorker) doStale(ctx context.Context, client *http.Client, m int, edgeURL []string, req workload.Request) {
	t0 := time.Now()
	_, err := httpcdn.Get(ctx, client, edgeURL[req.Server], m+req.Site, req.Object)
	if !errors.Is(err, httpcdn.ErrNotFound) {
		if err == nil {
			err = fmt.Errorf("%w: 200 for a site outside the catalog", httpcdn.ErrBadStatus)
		}
		lw.fail(err)
		return
	}
	lw.observe(t0)
	lw.notFound++
}

// faultLatency is the delay a "latency" fault adds to every request of
// the faulted edge.
const faultLatency = 200 * time.Millisecond

// setFault POSTs a fault-injector mode change and fails unless the
// edge accepted it.
func setFault(ctx context.Context, client *http.Client, edgeURL, mode string) error {
	fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodPost,
		edgeURL+"/admin/fault?mode="+mode+"&latency="+faultLatency.String(), nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("clusterd: setting fault %s: %w", mode, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("clusterd: setting fault %s: %s", mode, resp.Status)
	}
	return nil
}

// WriteReport writes the result as indented JSON to path ("-" for
// stdout).
func WriteReport(path string, res *LoadResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
