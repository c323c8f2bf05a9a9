package clusterd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"testing"
	"time"
)

// The cluster wire documents are consumed by cdnctl (shards), cdnd load
// (members) and every joining component (register); these golden key
// sets pin the schemas so a field rename is a visible, deliberate break
// instead of a silent one — the same discipline control's schema test
// applies to /debug/control.

// checkKeys asserts obj carries every required key and nothing outside
// required ∪ optional.
func checkKeys(t *testing.T, what string, obj map[string]json.RawMessage, required, optional []string) {
	t.Helper()
	allowed := map[string]bool{}
	for _, k := range required {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: required key %q missing", what, k)
		}
		allowed[k] = true
	}
	for _, k := range optional {
		allowed[k] = true
	}
	var extra []string
	for k := range obj {
		if !allowed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: unexpected keys %v — extend the golden schema test if this is deliberate", what, extra)
	}
}

func fetchKeys(t *testing.T, method, url string, body []byte) map[string]json.RawMessage {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d", method, url, resp.StatusCode)
	}
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestShardsPageSchema(t *testing.T) {
	tc := startCluster(t, DefaultParams(), ControlConfig{Interval: time.Hour})

	page := fetchKeys(t, http.MethodGet, tc.Control.URL()+"/debug/control/shards", nil)
	checkKeys(t, "/debug/control/shards", page,
		[]string{"shards", "vnodes", "key_space"}, nil)

	var shards []map[string]json.RawMessage
	if err := json.Unmarshal(page["shards"], &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != DefaultShards {
		t.Fatalf("%d shards, want %d", len(shards), DefaultShards)
	}
	for _, sh := range shards {
		checkKeys(t, "shards[i]", sh,
			[]string{"shard", "keys", "observed", "rolls", "rate_per_window"}, nil)
	}
}

// TestHealthPageSchema pins /debug/health: cdnctl health and dashboards
// read these field names. Edges only — the control plane probes no
// origin.
func TestHealthPageSchema(t *testing.T) {
	tc := startCluster(t, DefaultParams(), ControlConfig{Interval: time.Hour})

	page := fetchKeys(t, http.MethodGet, tc.Control.URL()+"/debug/health", nil)
	checkKeys(t, "/debug/health", page, []string{"edges", "origins"}, nil)
	var edges []map[string]json.RawMessage
	if err := json.Unmarshal(page["edges"], &edges); err != nil {
		t.Fatal(err)
	}
	if len(edges) != DefaultParams().Edges {
		t.Fatalf("%d edges, want %d", len(edges), DefaultParams().Edges)
	}
	for _, e := range edges {
		checkKeys(t, "edges[i]", e,
			[]string{"kind", "id", "state", "consecutive_failures", "ejections", "readmissions"},
			[]string{"retry_in_ms"})
	}
}

func TestRegisterResponseSchema(t *testing.T) {
	tc := startCluster(t, DefaultParams(), ControlConfig{Interval: time.Hour})

	// Re-register edge 0 (idempotent) to capture the response document.
	body, err := json.Marshal(RegisterRequest{Kind: "edge", ID: 0, URL: tc.Edges[0].URL()})
	if err != nil {
		t.Fatal(err)
	}
	reg := fetchKeys(t, http.MethodPost, tc.Control.URL()+"/cluster/register", body)
	checkKeys(t, "/cluster/register response", reg,
		[]string{"params", "edges", "placement_version", "placement", "report_every_ms"},
		[]string{"origin_url"})

	var params map[string]json.RawMessage
	if err := json.Unmarshal(reg["params"], &params); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "register.params", params,
		[]string{"edges", "seed", "capacity_frac"}, nil)

	// The placement document must be the core.Placement wire format.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(reg["placement"], &doc); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "register.placement", doc,
		[]string{"servers", "sites", "replicas"}, nil)
}

func TestMembersPageSchema(t *testing.T) {
	tc := startCluster(t, DefaultParams(), ControlConfig{Interval: time.Hour})

	page := fetchKeys(t, http.MethodGet, tc.Control.URL()+"/cluster/members", nil)
	checkKeys(t, "/cluster/members", page,
		[]string{"params", "edges", "expected"},
		[]string{"origin_url"})
	var edges []map[string]json.RawMessage
	if err := json.Unmarshal(page["edges"], &edges); err != nil {
		t.Fatal(err)
	}
	if len(edges) != DefaultParams().Edges {
		t.Fatalf("%d edges registered, want %d", len(edges), DefaultParams().Edges)
	}
	for _, e := range edges {
		checkKeys(t, "members.edges[i]", e, []string{"id", "url"}, nil)
	}
}
