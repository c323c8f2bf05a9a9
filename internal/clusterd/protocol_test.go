package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/xrand"
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
	est := cp.Controller().Estimator()
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

// TestReportBodyBound: a report body past the scenario's bound is
// refused with a 413 and feeds the estimator nothing, even when it is
// a well-formed batch; the largest legal batch — one count per site, at
// MaxReportCount, pretty-printed — is still accepted.
func TestReportBodyBound(t *testing.T) {
	cp := startControl(t, DefaultParams())
	est := cp.Controller().Estimator()
	m := cp.sc.Sys.M()
	limit := bodyLimit(m)

	padded := `{"edge":0,"counts":[{"site":1,"n":5}]` + strings.Repeat(" ", int(limit)) + `}`
	if code := report(cp, []byte(padded)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("padded batch: status %d, want 413", code)
	}
	many := `{"edge":0,"counts":[` + strings.Repeat(`{"site":1,"n":5},`, int(limit)/16) + `{"site":1,"n":5}]}`
	if code := report(cp, []byte(many)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("batch of %d counts: status %d, want 413", int(limit)/16+1, code)
	}
	if got := est.Observed(); got != 0 {
		t.Fatalf("refused batches fed the estimator %d requests", got)
	}

	largest := ReportBatch{Edge: cp.sc.Sys.N() - 1}
	for j := 0; j < m; j++ {
		largest.Counts = append(largest.Counts, SiteCount{Site: j, N: MaxReportCount})
	}
	body, err := json.MarshalIndent(largest, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if code := report(cp, body); code != http.StatusOK {
		t.Fatalf("largest legal batch (%d bytes, bound %d): status %d", len(body), limit, code)
	}
	if got, want := est.Observed(), int64(m)*MaxReportCount; got != want {
		t.Fatalf("largest legal batch fed %d requests, want %d", got, want)
	}
}

// TestReportPathExact: a seeded sequence of report batches, with rolls
// in between, leaves the controller's estimator equal — with == on
// every entry — to an Estimator fed the same counts through ObserveN:
// the report path adds, drops and regroups nothing.
func TestReportPathExact(t *testing.T) {
	cp := startControl(t, Params{Edges: 3, Seed: 4, CapacityFrac: 0.15})
	est := cp.Controller().Estimator()
	n, m := cp.sc.Sys.N(), cp.sc.Sys.M()
	want, err := control.NewEstimator(control.EstimatorConfig{Servers: n, Sites: m})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	for round := 0; round < 12; round++ {
		batches := 1 + rng.Intn(2*n)
		for b := 0; b < batches; b++ {
			batch := ReportBatch{Edge: rng.Intn(n)}
			for _, j := range rng.Perm(m)[:rng.Intn(m+1)] {
				c := 1 + rng.Int63()%5000
				if rng.Intn(10) == 0 {
					c = 1 + rng.Int63()%MaxReportCount
				}
				batch.Counts = append(batch.Counts, SiteCount{Site: j, N: c})
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			if code := report(cp, body); code != http.StatusOK {
				t.Fatalf("round %d: report status %d", round, code)
			}
			for _, c := range batch.Counts {
				want.ObserveN(batch.Edge, c.Site, c.N)
			}
		}
		if got, w := est.Roll(), want.Roll(); got != w {
			t.Fatalf("round %d: window total %d, want %d", round, got, w)
		}
	}
	if got, w := est.Observed(), want.Observed(); got != w {
		t.Fatalf("Observed() = %d, want %d", got, w)
	}
	if got, w := est.WindowTotals(), want.WindowTotals(); !reflect.DeepEqual(got, w) {
		t.Fatalf("WindowTotals() = %v, want %v", got, w)
	}
	got, ok := est.Demand()
	w, wok := want.Demand()
	if !ok || !wok {
		t.Fatalf("demand signal: %v, want %v", ok, wok)
	}
	for i := range w {
		for j := range w[i] {
			if got[i][j] != w[i][j] {
				t.Fatalf("demand[%d][%d] = %v, want %v", i, j, got[i][j], w[i][j])
			}
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
	est := cp.Controller().Estimator()
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

// TestPlacementPushBodyBound: a push past the scenario's bound is
// refused with a 413 and leaves the edge's placement and version as they
// were, even when the document inside it is valid; the same push
// without the padding applies.
func TestPlacementPushBodyBound(t *testing.T) {
	params := Params{Edges: 2, Seed: 2, CapacityFrac: 0.2}
	e, err := StartEdge(params, EdgeConfig{ID: 0, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	push := func(body []byte) int {
		rec := httptest.NewRecorder()
		e.servePlacement(rec, httptest.NewRequest(http.MethodPost, "/admin/placement", bytes.NewReader(body)))
		return rec.Code
	}
	doc := placementDoc(t, placement.GreedyGlobal(e.sc.Sys).Placement)
	limit := bodyLimit(e.sc.Sys.N() * e.sc.Sys.M())
	v0, p0 := e.PlacementVersion(), e.engine.Placement()

	padded := `{"version":7,"doc":` + string(doc) + strings.Repeat(" ", int(limit)) + `}`
	if code := push([]byte(padded)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("padded push: status %d, want 413", code)
	}
	if v, p := e.PlacementVersion(), e.engine.Placement(); v != v0 || p != p0 {
		t.Fatalf("refused push moved the edge from v%d to v%d", v0, v)
	}
	if code := push(pushBody(t, 7, doc)); code != http.StatusOK {
		t.Fatalf("push: status %d", code)
	}
	if v := e.PlacementVersion(); v != 7 {
		t.Fatalf("push applied version %d, want 7", v)
	}
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
