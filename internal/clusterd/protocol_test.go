package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/placement"
)

// startControl boots a control plane with no members and no reconcile
// ticks; the cleanup shuts it down.
func startControl(tb testing.TB, params Params) *ControlPlane {
	tb.Helper()
	cp, err := StartControl(params, ControlConfig{Addr: "127.0.0.1:0", Interval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cp.Shutdown(ctx)
	})
	return cp
}

// report hands body to the control plane's report handler and returns
// the reply status.
func report(cp *ControlPlane, body []byte) int {
	rec := httptest.NewRecorder()
	cp.serveReport(rec, httptest.NewRequest(http.MethodPost, "/cluster/report", bytes.NewReader(body)))
	return rec.Code
}

// TestReportRejectsBadCounts: a batch with a non-positive count, an
// implausibly large one or a site outside the catalog is refused whole
// with a 400 and feeds the estimator nothing, and ordinary reports keep
// producing a demand signal afterwards. A count of MaxInt64 followed by
// one more request would otherwise wrap the cell negative and leave the
// controller without a signal for dozens of rounds.
func TestReportRejectsBadCounts(t *testing.T) {
	cp := startControl(t, DefaultParams())
	est := cp.Estimator()
	for _, bad := range []string{
		`{"edge":0,"counts":[{"site":0,"n":9223372036854775807},{"site":0,"n":1}]}`,
		`{"edge":0,"counts":[{"site":1,"n":3},{"site":0,"n":0}]}`,
		`{"edge":1,"counts":[{"site":2,"n":-7}]}`,
		`{"edge":0,"counts":[{"site":4,"n":2},{"site":8,"n":1}]}`,
		`{"edge":0,"counts":[{"site":-1,"n":1}]}`,
	} {
		if code := report(cp, []byte(bad)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
	if got := est.Observed(); got != 0 {
		t.Fatalf("rejected batches fed the estimator %d requests", got)
	}
	for r := 0; r < 3; r++ {
		if code := report(cp, []byte(`{"edge":1,"counts":[{"site":3,"n":40}]}`)); code != http.StatusOK {
			t.Fatalf("valid report: status %d", code)
		}
		if got := est.Roll(); got != 40 {
			t.Fatalf("roll %d: window total %d, want 40", r, got)
		}
		if _, ok := est.Demand(); !ok {
			t.Fatalf("roll %d: no demand signal", r)
		}
	}
}

// FuzzReportBatch sends arbitrary bodies to the report handler. It must
// not panic, the estimator's Observed total never falls, a rejected
// batch adds nothing, and after every roll each demand entry is finite
// and non-negative.
func FuzzReportBatch(f *testing.F) {
	for _, seed := range []string{
		`{"edge":0,"counts":[{"site":1,"n":5},{"site":7,"n":1}]}`,
		`{"edge":1,"counts":[]}`,
		`{"edge":0,"counts":[{"site":0,"n":9223372036854775807},{"site":0,"n":1}]}`,
		`{"edge":0,"counts":[{"site":0,"n":1099511627776},{"site":0,"n":1099511627776}]}`,
		`{"edge":1,"counts":[{"site":2,"n":-7}]}`,
		`{"edge":2,"counts":[{"site":0,"n":1}]}`,
		`{"edge":0,"counts":[{"site":0,"n":1.5}]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	cp := startControl(f, DefaultParams())
	est := cp.Estimator()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := est.Observed()
		code := report(cp, body)
		after := est.Observed()
		if after < before {
			t.Fatalf("Observed fell from %d to %d", before, after)
		}
		if code != http.StatusOK && after != before {
			t.Fatalf("rejected report (status %d) fed %d requests", code, after-before)
		}
		est.Roll()
		d, _ := est.Demand()
		for i := range d {
			for j, v := range d[i] {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("demand[%d][%d] = %v", i, j, v)
				}
			}
		}
	})
}

// pushBody encodes a placement push.
func pushBody(tb testing.TB, version int64, doc []byte) []byte {
	tb.Helper()
	b, err := json.Marshal(PlacementPush{Version: version, Doc: doc})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// placementDoc serializes p.
func placementDoc(tb testing.TB, p *core.Placement) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := p.SaveJSON(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzPlacementPush sends arbitrary bodies to an edge's POST
// /admin/placement. It must not panic, the applied version never falls,
// and a rejected document, like an ignored stale one, leaves the applied
// placement as it was.
func FuzzPlacementPush(f *testing.F) {
	params := Params{Edges: 2, Seed: 2, CapacityFrac: 0.2}
	e, err := StartEdge(params, EdgeConfig{ID: 0, Addr: "127.0.0.1:0"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	doc := placementDoc(f, placement.GreedyGlobal(e.sc.Sys).Placement)
	for _, seed := range [][]byte{
		pushBody(f, 1, doc),
		pushBody(f, 0, doc),
		pushBody(f, -3, doc),
		pushBody(f, 2, []byte(`{"servers":2,"sites":8,"replicas":[[0,99]]}`)),
		pushBody(f, 3, []byte(`{"servers":2,"sites":8,"replicas":[[1,1],[1,1]]}`)),
		[]byte(`{"version":4,"doc":{"servers":1}}`),
		[]byte(`{"version":5}`),
		[]byte(`garbage`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		v0, p0 := e.PlacementVersion(), e.engine.Placement()
		rec := httptest.NewRecorder()
		e.servePlacement(rec, httptest.NewRequest(http.MethodPost, "/admin/placement", bytes.NewReader(body)))
		v1, p1 := e.PlacementVersion(), e.engine.Placement()
		if v1 < v0 {
			t.Fatalf("applied version fell from %d to %d", v0, v1)
		}
		if rec.Code != http.StatusOK && (v1 != v0 || p1 != p0) {
			t.Fatalf("rejected push (status %d) moved the edge from v%d to v%d", rec.Code, v0, v1)
		}
		if v1 == v0 && p1 != p0 {
			t.Fatalf("placement swapped without a version bump at v%d", v0)
		}
	})
}

// TestFailedPlacementPullIsLogged: a report reply that announces a newer
// placement makes the edge pull it; when the pull fails the edge says so
// and keeps the placement it has.
func TestFailedPlacementPullIsLogged(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/report" {
			json.NewEncoder(w).Encode(ReportResponse{PlacementVersion: 5})
			return
		}
		http.Error(w, "placement store down", http.StatusInternalServerError)
	}))
	defer stub.Close()
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	e, err := StartEdge(Params{Edges: 2, Seed: 2, CapacityFrac: 0.2}, EdgeConfig{ID: 0, Addr: "127.0.0.1:0", Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	}()
	e.controlURL = stub.URL
	e.flushReport(context.Background())

	mu.Lock()
	defer mu.Unlock()
	pulls := 0
	for _, l := range lines {
		if strings.Contains(l, "placement pull") {
			pulls++
		}
	}
	if pulls != 1 {
		t.Fatalf("logged %q; want one placement pull line", lines)
	}
	if v := e.PlacementVersion(); v != 0 {
		t.Fatalf("placement version %d after a failed pull, want 0", v)
	}
}
