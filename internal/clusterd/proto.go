// Package clusterd is the deployment: separately deployable components
// that speak HTTP to each other, run one per process by `cdnd ROLE` or
// all in one process by StartLocal (cmd/cdnd with no role, the tests):
//
//   - a control plane (cdnd control) that owns the deployment
//     scenario, shards the demand estimator by consistent-hashed
//     (edge, site) key, runs the reconcile loop against the aggregated
//     estimate, actively probes member health, and pushes placement
//     swaps to the edges;
//   - standalone edges (cdnd edge) that put an httpcdn.Engine — the
//     one replica → cache → peer/origin serving path — behind a real
//     listener, count per-site demand locally, and flush deltas to the
//     control plane;
//   - a standalone origin (cdnd origin): an httpcdn.Origin for every
//     site's primary copy, with a fault-injector hook;
//   - a load generator (RunLoad / cdnd load) with persistent
//     connections, concurrent workers, Zipf popularity from
//     internal/workload, per-worker latency histograms and client-side
//     failover across edges.
//
// Every process rebuilds the identical scenario deterministically from
// the shared Params (topology, workload and capacities all derive from
// the seed), so the wire protocol only ever carries the small Params
// struct and placement documents, never cost matrices.
package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Params is the shared deployment description. It is the only scenario
// state that crosses the wire: Build derives everything else (topology,
// workload, costs, capacities) deterministically.
type Params struct {
	// Edges is N, the number of edge servers the scenario expects; an
	// edge process registers as one of ids 0..Edges-1.
	Edges int `json:"edges"`
	// Seed derives every random stream of the scenario.
	Seed uint64 `json:"seed"`
	// CapacityFrac is per-edge storage as a fraction of total content
	// bytes.
	CapacityFrac float64 `json:"capacity_frac"`
}

// DefaultParams is the deployment scenario at cluster-smoke scale.
func DefaultParams() Params {
	return Params{Edges: 2, Seed: 1, CapacityFrac: 0.15}
}

// Build constructs the deployment scenario from p: a 26-node
// transit-stub topology and 8 sites of 60 objects, whatever the edge
// count.
func (p Params) Build() (*scenario.Scenario, error) {
	if p.Edges < 1 {
		return nil, fmt.Errorf("clusterd: %d edges", p.Edges)
	}
	w := workload.DefaultConfig()
	w.Servers = p.Edges
	w.LowSites, w.MediumSites, w.HighSites = 2, 4, 2
	w.ObjectsPerSite = 60
	return scenario.Build(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   3,
			StubNodesPerStub:      4,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: p.CapacityFrac,
		Seed:         p.Seed,
	})
}

// Member is one registered component in the control plane's roster.
type Member struct {
	ID  int    `json:"id"`
	URL string `json:"url"`
}

// RegisterRequest is the body of POST /cluster/register.
type RegisterRequest struct {
	// Kind is "edge" or "origin".
	Kind string `json:"kind"`
	// ID is the edge id in 0..Edges-1; origins register with -1.
	ID int `json:"id"`
	// URL is the component's base URL, reachable from the control plane
	// and from every edge.
	URL string `json:"url"`
}

// RegisterResponse hands a joining component everything it needs to
// serve: the scenario parameters, the current roster, the live
// placement and the report cadence.
type RegisterResponse struct {
	Params Params `json:"params"`
	// OriginURL is the origin component's base URL, empty until one
	// registers.
	OriginURL string `json:"origin_url,omitempty"`
	// Edges lists the currently registered edges.
	Edges []Member `json:"edges"`
	// PlacementVersion and Placement carry the live placement document
	// (core.Placement SaveJSON format) and its monotonic version.
	PlacementVersion int64           `json:"placement_version"`
	Placement        json.RawMessage `json:"placement"`
	// ReportEveryMs is the demand-report cadence the control plane asks
	// edges to flush at.
	ReportEveryMs int64 `json:"report_every_ms"`
}

// SiteCount is one (site, requests) demand delta in a report batch.
type SiteCount struct {
	Site int   `json:"site"`
	N    int64 `json:"n"`
}

// MaxReportCount is the largest N one SiteCount may carry: 2^40
// requests, twelve days of a million requests a second. An edge flushes
// every few hundred milliseconds, so anything larger is a corrupt or
// hostile report, and one such count would swamp the demand estimate
// for dozens of reconcile rounds.
const MaxReportCount = 1 << 40

// ReportBatch is the body of POST /cluster/report: an edge's per-site
// request counts since its previous report. The control plane routes
// each (edge, site) cell to the estimator shard that owns it, and
// rejects the whole batch with a 400 when a site is outside the catalog
// or a count outside [1, MaxReportCount].
type ReportBatch struct {
	Edge   int         `json:"edge"`
	Counts []SiteCount `json:"counts"`
}

// ReportResponse piggybacks roster and placement-version refresh on the
// report reply, so a steady-state edge needs no extra polling: when
// PlacementVersion is ahead of the edge's local version, the edge pulls
// GET /cluster/placement.
type ReportResponse struct {
	PlacementVersion int64    `json:"placement_version"`
	OriginURL        string   `json:"origin_url,omitempty"`
	Edges            []Member `json:"edges"`
}

// PlacementPush is the placement-swap wire format: the control plane
// POSTs it to each edge's /admin/placement after a reconcile applies,
// and serves it at GET /cluster/placement for pull-based catch-up.
// Version is monotonic; an edge ignores pushes at or below its current
// version, so replayed or reordered pushes are harmless.
type PlacementPush struct {
	Version int64           `json:"version"`
	Doc     json.RawMessage `json:"doc"`
}

// MembersPage is the GET /cluster/members payload — the load
// generator's bootstrap document.
type MembersPage struct {
	Params    Params   `json:"params"`
	OriginURL string   `json:"origin_url,omitempty"`
	Edges     []Member `json:"edges"`
	// Expected is the scenario's edge count; a deployment is fully up
	// when len(Edges) == Expected and OriginURL is set.
	Expected int `json:"expected"`
}

// postJSON POSTs v to url and decodes the JSON reply into out (out may
// be nil to discard).
func postJSON(ctx context.Context, client *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return doJSON(ctx, client, http.MethodPost, url, bytes.NewReader(body), out)
}

// getJSON GETs url and decodes the JSON reply into out.
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	return doJSON(ctx, client, http.MethodGet, url, nil, out)
}

// doJSON is one control-protocol exchange: body (JSON, or nil) goes to
// url, and a 200 reply is decoded into out unless out is nil.
func doJSON(ctx context.Context, client *http.Client, method, url string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// FetchParams retrieves the deployment Params from a control plane —
// the first call every joining component makes.
func FetchParams(ctx context.Context, client *http.Client, controlURL string) (Params, error) {
	var p Params
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	err := getJSON(ctx, client, controlURL+"/cluster/config", &p)
	return p, err
}
