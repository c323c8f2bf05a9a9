package clusterd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// wiring is one way of putting httpcdn.Engine and httpcdn.Origin on
// sockets. The serving suite below runs every case against each one in
// wirings: a clusterd control plane + origin + edges on loopback.
type wiring interface {
	url(edge int) string
	originURL(site int) string
	// swap installs p (built on the suite's scenario) on every edge.
	swap(p *core.Placement) error
	modify(site, object int)
	// fault sets the injector of an "edge" or of a site's "origin".
	fault(kind string, id int, mode fault.Mode)
	stats(edge int) httpcdn.EdgeStats
	registry(edge int) *obs.Registry
	originRegistry() *obs.Registry
	// tapped is the client demand the wiring's request tap has seen.
	tapped() int64
	// close drains every server; spans are complete afterwards.
	close()
}

// suiteParams is the deployment every case runs on: 3 edges, 8 sites.
var suiteParams = Params{Edges: 3, Seed: 1, CapacityFrac: 0.3}

// bootOpts are the serving knobs a case may set.
type bootOpts struct {
	retry         httpcdn.RetryPolicy
	failThreshold int
	tracer        *obs.Tracer
}

// fastRetry keeps failure cases out of the default 2 s timeouts.
var fastRetry = httpcdn.RetryPolicy{Attempts: 1, Timeout: 150 * time.Millisecond,
	BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Jitter: 0.1}

// multiProcess is the wiring over StartControl / StartOrigin / StartEdge.
// The control plane never reconciles (Interval: an hour); the suite's
// placements are pushed to the edges directly, at versions above the
// control plane's own.
type multiProcess struct {
	tc      *testCluster
	version int64
}

func bootMultiProcess(t *testing.T, sc *scenario.Scenario, p *core.Placement, o bootOpts) wiring {
	tc := startClusterEdges(t, suiteParams,
		ControlConfig{Interval: time.Hour, ReportEvery: 20 * time.Millisecond},
		EdgeConfig{Config: httpcdn.Config{Retry: o.retry, FailThreshold: o.failThreshold},
			Tracer: o.tracer})
	w := &multiProcess{tc: tc, version: 100}
	if err := w.swap(p); err != nil {
		t.Fatal(err)
	}
	// An edge learns of the edges that registered after it from its
	// report replies.
	waitFor(t, 5*time.Second, "full rosters", func() error {
		for _, e := range tc.Edges {
			e.rosterMu.Lock()
			for id, url := range e.peers {
				if url == "" {
					defer e.rosterMu.Unlock()
					return fmt.Errorf("edge %d does not know edge %d yet", e.ID(), id)
				}
			}
			e.rosterMu.Unlock()
		}
		return nil
	})
	return w
}

func (w *multiProcess) url(i int) string              { return w.tc.Edges[i].URL() }
func (w *multiProcess) originURL(int) string          { return w.tc.Origin.URL() }
func (w *multiProcess) modify(site, object int)       { w.tc.Origin.ModifyObject(site, object) }
func (w *multiProcess) stats(i int) httpcdn.EdgeStats { return w.tc.Edges[i].Stats() }
func (w *multiProcess) registry(i int) *obs.Registry  { return w.tc.Edges[i].Registry() }
func (w *multiProcess) originRegistry() *obs.Registry { return w.tc.Origin.Registry() }
func (w *multiProcess) close()                        { w.tc.shutdown() }
func (w *multiProcess) fault(kind string, id int, m fault.Mode) {
	if kind == "edge" {
		w.tc.Edges[id].Injector().Set(m, 0)
	} else {
		w.tc.Origin.Injector().Set(m, 0) // one origin process serves every site
	}
}

func (w *multiProcess) swap(p *core.Placement) error {
	var doc bytes.Buffer
	if err := p.SaveJSON(&doc); err != nil {
		return err
	}
	w.version++
	for _, e := range w.tc.Edges {
		if err := e.applyPlacement(PlacementPush{Version: w.version, Doc: doc.Bytes()}); err != nil {
			return err
		}
	}
	return nil
}

// tapped adds what the edges have flushed to the control plane's
// estimator and what they still hold; a batch in flight between the two
// is in neither, so callers poll.
func (w *multiProcess) tapped() int64 {
	n := w.tc.Control.Controller().Estimator().Observed()
	for _, e := range w.tc.Edges {
		for j := range e.counts {
			n += e.counts[j].Load()
		}
	}
	return n
}

var wirings = []struct {
	name string
	boot func(*testing.T, *scenario.Scenario, *core.Placement, bootOpts) wiring
}{
	{"clusterd", bootMultiProcess},
}

// response is one raw GET of an edge or origin.
type response struct {
	status              int
	source, etag, class string
	body                []byte
}

func get(t *testing.T, url string) response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, resp.Header.Get("X-Cdn-Source"), resp.Header.Get("Etag"),
		resp.Header.Get(httpcdn.ErrorHeader), body}
}

// fetch is httpcdn.Get with the test's client, fatal on error.
func fetch(t *testing.T, w wiring, edge, site, object int) httpcdn.FetchResult {
	t.Helper()
	res, err := httpcdn.Get(context.Background(), http.DefaultClient, w.url(edge), site, object)
	if err != nil {
		t.Fatalf("GET edge %d %s: %v", edge, httpcdn.ObjectPath(site, object), err)
	}
	return res
}

// peerTriple finds (from, peer, site) where a replica of site at peer is
// cheaper from edge from than the site's origin, so a miss at from
// redirects to peer first; p holds just that replica.
func peerTriple(t *testing.T, sc *scenario.Scenario) (from, peer, site int, p *core.Placement) {
	t.Helper()
	sys := sc.Sys
	for from = 0; from < sys.N(); from++ {
		for peer = 0; peer < sys.N(); peer++ {
			for site = 0; site < sys.M(); site++ {
				p = core.NewPlacement(sys)
				if peer != from && sys.CostServer[from][peer] < sys.CostOrigin[from][site] && p.CanReplicate(peer, site) {
					if err := p.Replicate(peer, site); err != nil {
						t.Fatal(err)
					}
					return from, peer, site, p
				}
			}
		}
	}
	t.Fatal("no (edge, peer, site) with the peer nearer than the origin")
	return
}

func counter(reg *obs.Registry, name string, edge int) int64 {
	var l obs.Labels
	if edge >= 0 {
		l = obs.Labels{"edge": strconv.Itoa(edge)}
	}
	return reg.Counter(name, "", l).Value()
}

// TestServing is the one serving-path suite: every behaviour of the
// replica → cache → peer → origin discipline, checked on every wiring.
func TestServing(t *testing.T) {
	sc, err := suiteParams.Build()
	if err != nil {
		t.Fatal(err)
	}
	none := core.NewPlacement(sc.Sys)
	hybrid, err := placement.Hybrid(sc.Sys, placement.HybridConfig{
		Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes})
	if err != nil || hybrid.Placement.Replicas() == 0 {
		t.Fatalf("hybrid placement: %v", err)
	}
	cases := []struct {
		name string
		run  func(t *testing.T, boot func(*core.Placement, bootOpts) wiring)
	}{
		{"replica served locally", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			_, peer, site, p := peerTriple(t, sc)
			w := boot(p, bootOpts{})
			if res := fetch(t, w, peer, site, 1); res.Source != httpcdn.SourceReplica {
				t.Fatalf("source %q, want replica", res.Source)
			}
			if st := w.stats(peer); st.Replica != 1 || st.CacheLookups() != 0 {
				t.Fatalf("stats after one replica serve: %+v", st)
			}
		}},
		{"miss then hit", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			w := boot(none, bootOpts{})
			first, second := fetch(t, w, 0, 2, 3), fetch(t, w, 0, 2, 3)
			if first.Source != httpcdn.SourceOrigin || second.Source != httpcdn.SourceCache {
				t.Fatalf("sources %q then %q, want origin then cache", first.Source, second.Source)
			}
			if first.Bytes != second.Bytes || first.Bytes == 0 {
				t.Fatalf("byte counts %d then %d", first.Bytes, second.Bytes)
			}
			if st := w.stats(0); st.OriginFetch != 1 || st.CacheHit != 1 || st.HitRatio() != 0.5 {
				t.Fatalf("stats: %+v", st)
			}
		}},
		{"payload and etag deterministic", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			w := boot(none, bootOpts{})
			a := get(t, w.url(0)+httpcdn.ObjectPath(0, 5))
			b := get(t, w.url(2)+httpcdn.ObjectPath(0, 5))
			o := get(t, w.originURL(0)+httpcdn.ObjectPath(0, 5))
			if a.status != 200 || !bytes.Equal(a.body, b.body) || !bytes.Equal(a.body, o.body) {
				t.Fatalf("bodies differ: %d, %d and %d bytes (status %d)", len(a.body), len(b.body), len(o.body), a.status)
			}
			if want := httpcdn.ETagFor(0, 5, 0); a.etag != want || b.etag != want || o.etag != want {
				t.Fatalf("etags %s %s %s, want %s", a.etag, b.etag, o.etag, want)
			}
			if !httpcdn.VerifyBody(a.body, 0, 5, 0) {
				t.Fatal("body is not the object's pattern")
			}
		}},
		{"bad paths are 404s, not errors", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			w := boot(none, bootOpts{})
			paths := []string{"/obj/", "/obj/0", "/obj/99/1", "/obj/0/0", "/obj/0/9999", "/obj/x/y", "/obj/0/1/2"}
			for _, path := range paths {
				for _, base := range []string{w.url(1), w.originURL(0)} {
					if r := get(t, base+path); r.status != http.StatusNotFound {
						t.Errorf("GET %s%s = %d, want 404", base, path, r.status)
					}
				}
			}
			n := int64(len(paths))
			if got := counter(w.registry(1), "cdn_edge_notfound_total", 1); got != n {
				t.Errorf("cdn_edge_notfound_total = %d, want %d", got, n)
			}
			if got := counter(w.registry(1), "cdn_edge_errors_total", 1); got != 0 {
				t.Errorf("cdn_edge_errors_total = %d after 404s, want 0", got)
			}
			if st := w.stats(1); st.NotFound != n || st.Replica+st.CacheLookups() != 0 {
				t.Errorf("bad paths leaked into serve attribution: %+v", st)
			}
			if got := counter(w.originRegistry(), "cdn_origin_notfound_total", -1); got != n {
				t.Errorf("cdn_origin_notfound_total = %d, want %d", got, n)
			}
			if got := counter(w.originRegistry(), "cdn_origin_requests_total", -1); got != 0 {
				t.Errorf("origin served %d out-of-catalog requests, want 0", got)
			}
		}},
		{"redirection skips an ejected peer", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			from, peer, site, p := peerTriple(t, sc)
			var buf lockedBuffer
			tr := obs.NewTracer(&buf)
			w := boot(p, bootOpts{retry: fastRetry, failThreshold: 2, tracer: tr})
			if res := fetch(t, w, from, site, 1); res.Source != httpcdn.SourcePeer {
				t.Fatalf("healthy peer: source %q, want peer", res.Source)
			}
			// Two failed fetches eject the peer; each fails over to the origin.
			w.fault("edge", peer, fault.ModeError)
			for obj := 2; obj <= 3; obj++ {
				if res := fetch(t, w, from, site, obj); res.Source != httpcdn.SourceOrigin {
					t.Fatalf("failing peer: source %q, want origin", res.Source)
				}
			}
			// From now on selection drops it: no attempt reaches the peer.
			if res := fetch(t, w, from, site, 4); res.Source != httpcdn.SourceOrigin {
				t.Fatalf("ejected peer: source %q, want origin", res.Source)
			}
			w.close()
			var last []obs.Span // the fourth request's spans at edge from
			for _, s := range readSpans(t, tr, &buf) {
				if s.Edge == from && s.Object == 4 {
					last = append(last, s)
				}
			}
			skipped, peerAttempts := "", 0
			for _, s := range last {
				if s.Kind == obs.SpanHealth {
					skipped = s.Attrs["skipped_ejected"]
				}
				if s.Kind == obs.SpanUpstream && s.Attrs["target"] == "edge:"+strconv.Itoa(peer) {
					peerAttempts++
				}
			}
			if skipped != "1" || peerAttempts != 0 {
				t.Fatalf("after ejection: skipped_ejected=%q, %d attempts at the peer; want 1 and 0", skipped, peerAttempts)
			}
		}},
		{"blackholed upstreams cost one timeout each", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			from, peer, site, p := peerTriple(t, sc)
			w := boot(p, bootOpts{retry: fastRetry})
			w.fault("edge", peer, fault.ModeBlackhole)
			start := time.Now()
			if res := fetch(t, w, from, site, 1); res.Source != httpcdn.SourceOrigin {
				t.Fatalf("blackholed peer: source %q, want origin", res.Source)
			}
			// With the origin gone too the request fails, typed, as fast.
			w.fault("origin", site, fault.ModeBlackhole)
			r := get(t, w.url(from)+httpcdn.ObjectPath(site, 2))
			if r.status != http.StatusGatewayTimeout || r.class != "timeout" {
				t.Fatalf("all upstreams blackholed: status %d class %q, want 504 timeout", r.status, r.class)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("three timed-out attempts took %v — per-attempt timeout not enforced", elapsed)
			}
			if got := counter(w.registry(from), "cdn_edge_errors_total", from); got != 1 {
				t.Errorf("cdn_edge_errors_total = %d, want 1", got)
			}
		}},
		{"typed error classes reach the client", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			w := boot(none, bootOpts{retry: fastRetry})
			w.fault("origin", 3, fault.ModeError)
			r := get(t, w.url(0)+httpcdn.ObjectPath(3, 1))
			if r.status != http.StatusBadGateway || r.class != "upstream-status" {
				t.Fatalf("origin answering 503: status %d class %q, want 502 upstream-status", r.status, r.class)
			}
			_, err := httpcdn.Get(context.Background(), http.DefaultClient, w.url(0), 3, 1)
			if !errors.Is(err, httpcdn.ErrUpstreamStatus) {
				t.Fatalf("Get returned %v, want ErrUpstreamStatus", err)
			}
			w.fault("origin", 3, fault.ModeOff)
			if res := fetch(t, w, 0, 3, 1); res.Source != httpcdn.SourceOrigin {
				t.Fatalf("recovered origin: source %q", res.Source)
			}
		}},
		{"a replica does not roll back a learned version", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			_, peer, site, p := peerTriple(t, sc)
			w := boot(none, bootOpts{})
			w.modify(site, 1)
			if res := fetch(t, w, peer, site, 1); res.Source != httpcdn.SourceOrigin || res.Version != 1 {
				t.Fatalf("fetch after modify: %+v, want origin at version 1", res)
			}
			// The swapped-in placement fills the edge's storage with
			// replicas, so little is left for its cache.
			for j := range sc.Work.Sites {
				if p.CanReplicate(peer, j) {
					if err := p.Replicate(peer, j); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.swap(p); err != nil {
				t.Fatal(err)
			}
			// Churn: one miss on every object of the sites the edge does
			// not replicate fetches far more than its cache holds, so the
			// cached copy of (site, 1) is evicted.
			for j, s := range sc.Work.Sites {
				for obj := 1; obj <= len(s.Objects) && !p.Has(peer, j); obj++ {
					fetch(t, w, peer, j, obj)
				}
			}
			if res := fetch(t, w, peer, site, 1); res.Source != httpcdn.SourceReplica || res.Version != 1 {
				t.Fatalf("replica serve after churn: %+v, want replica at version 1", res)
			}
		}},
		{"a replica serves the version its edge has learned", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			// The edge has never fetched the object, so it has learned
			// nothing newer than version 0 however far the origin is.
			_, peer, site, p := peerTriple(t, sc)
			w := boot(none, bootOpts{})
			w.modify(site, 1)
			if err := w.swap(p); err != nil {
				t.Fatal(err)
			}
			if res := fetch(t, w, peer, site, 1); res.Source != httpcdn.SourceReplica || res.Version != 0 {
				t.Fatalf("replica serve: %+v, want replica at version 0", res)
			}
			if o := get(t, w.originURL(site)+httpcdn.ObjectPath(site, 1)); o.etag != httpcdn.ETagFor(site, 1, 1) {
				t.Fatalf("origin etag %s, want version 1's", o.etag)
			}
		}},
		{"weak consistency serves the stale copy", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			// §3.3 over HTTP: cache an object, modify it at the origin,
			// fetch it again. The edge serves its cached copy at the stale
			// version 0.
			const edge, site, object = 0, 0, 2
			w := boot(none, bootOpts{})
			var got []httpcdn.FetchResult
			for k := 0; k < 3; k++ {
				if k == 2 {
					w.modify(site, object)
				}
				got = append(got, fetch(t, w, edge, site, object))
			}
			want := []string{httpcdn.SourceOrigin, httpcdn.SourceCache, httpcdn.SourceCache}
			for k, res := range got {
				if res.Source != want[k] {
					t.Fatalf("fetch %d from %q, want %q", k, res.Source, want[k])
				}
			}
			if got[2].Version != 0 {
				t.Fatalf("third fetch at version %d, want the stale 0", got[2].Version)
			}
		}},
		{"a conditional GET gets the full body", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			// Neither the origin nor an edge answers 304: a GET whose
			// If-None-Match names the current version gets the 200 and
			// the whole payload.
			const site, object = 0, 3
			w := boot(none, bootOpts{})
			w.modify(site, object)
			etag := httpcdn.ETagFor(site, object, 1)
			for _, base := range []string{w.originURL(site), w.url(1)} {
				req, err := http.NewRequest(http.MethodGet, base+httpcdn.ObjectPath(site, object), nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("If-None-Match", etag)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK || resp.Header.Get("Etag") != etag ||
					len(body) == 0 || int64(len(body)) != resp.ContentLength || !httpcdn.VerifyBody(body, site, object, 1) {
					t.Fatalf("%s: status %d etag %s, %d of %d bytes; want a 200 with version 1's whole body",
						base, resp.StatusCode, resp.Header.Get("Etag"), len(body), resp.ContentLength)
				}
			}
		}},
		{"request counters agree with stats and serve spans", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			var buf lockedBuffer
			tr := obs.NewTracer(&buf)
			w := boot(hybrid.Placement, bootOpts{tracer: tr})
			const requests = 300
			stream := sc.Stream(xrand.New(42))
			sources := map[string]int{}
			for k := 0; k < requests; k++ {
				req := stream.Next()
				sources[fetch(t, w, req.Server, req.Site, req.Object).Source]++
			}
			if sources[httpcdn.SourceCache] == 0 {
				t.Errorf("no cache hits over %d requests: %v", requests, sources)
			}
			// A handler counts its serve before it writes the body, but
			// observes the latency histogram and ends its serve span
			// after: drain the deployment before reading either.
			w.close()
			var serves int64
			for _, s := range readSpans(t, tr, &buf) {
				if s.Kind == obs.SpanServe {
					serves++
				}
			}
			// Every client serve, plus any internal peer serve, is one
			// serve span, one request count and one latency sample.
			var counted, observed int64
			for i := 0; i < suiteParams.Edges; i++ {
				reg := w.registry(i)
				for _, src := range obs.Sources {
					counted += reg.Counter("cdn_edge_requests_total", "",
						obs.Labels{"edge": strconv.Itoa(i), "source": src}).Value()
					observed += reg.Histogram("cdn_request_latency_ms", "",
						obs.Labels{"source": src}, obs.DefaultLatencyBuckets()).Count()
				}
				// Every lookup is one hit or one miss, and on this
				// fault-free run every miss is one peer or origin fetch.
				st := w.stats(i)
				if hits := counter(reg, "cdn_edge_cache_hits_total", i); hits != st.CacheHit {
					t.Errorf("edge %d: counter hits %d, stats %d", i, hits, st.CacheHit)
				}
				if misses := counter(reg, "cdn_edge_cache_misses_total", i); misses != st.PeerFetch+st.OriginFetch {
					t.Errorf("edge %d: counter misses %d, stats %d peer + %d origin fetches", i, misses, st.PeerFetch, st.OriginFetch)
				}
			}
			if serves < requests || counted != serves || observed != serves {
				t.Fatalf("%d client requests: %d serve spans, cdn_edge_requests_total %d, %d latency samples",
					requests, serves, counted, observed)
			}
			var b strings.Builder
			if err := w.registry(0).WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"cdn_edge_requests_total", "cdn_edge_cache_hits_total",
				"cdn_edge_cache_misses_total", "cdn_edge_cache_resident_bytes",
				"cdn_request_latency_ms_bucket",
			} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("/metrics missing %s", want)
				}
			}
		}},
		{"placement swaps under load lose nothing", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			w := boot(hybrid.Placement, bootOpts{})
			const clients, perClient, swaps = 4, 120, 300
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // flip hybrid <-> pure caching as fast as it goes
				defer wg.Done()
				for s := 0; s < swaps; s++ {
					p := hybrid.Placement
					if s%2 == 0 {
						p = none
					}
					if err := w.swap(p); err != nil {
						t.Errorf("swap %d: %v", s, err)
						return
					}
				}
			}()
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					stream := sc.Stream(xrand.New(uint64(1000 + g)))
					for k := 0; k < perClient; k++ {
						req := stream.Next()
						// Get verifies the body: a misrouted request fails here.
						if _, err := httpcdn.Get(context.Background(), http.DefaultClient, w.url(req.Server), req.Site, req.Object); err != nil {
							t.Errorf("fetch during swap: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			// The request tap saw each client request exactly once.
			waitFor(t, 5*time.Second, "request tap", func() error {
				if got := w.tapped(); got != clients*perClient {
					return fmt.Errorf("tapped %d of %d", got, clients*perClient)
				}
				return nil
			})
		}},
		{"a peer-served miss emits the full span tree", func(t *testing.T, boot func(*core.Placement, bootOpts) wiring) {
			from, peer, site, p := peerTriple(t, sc)
			var buf lockedBuffer
			tr := obs.NewTracer(&buf)
			w := boot(p, bootOpts{tracer: tr})
			if res := fetch(t, w, from, site, 1); res.Source != httpcdn.SourcePeer {
				t.Fatalf("source %q, want peer", res.Source)
			}
			w.close()
			spans := readSpans(t, tr, &buf)
			byID := make(map[string]obs.Span, len(spans))
			for _, s := range spans {
				if err := obs.ValidateSpan(s); err != nil {
					t.Fatalf("invalid span: %v", err)
				}
				byID[s.Span] = s
			}
			// The edge's serve, its health consult, one failover hop, one
			// attempt, and the peer's serve beneath it.
			kinds := map[string]int{}
			for _, s := range spans {
				kinds[s.Kind]++
				if s.Trace != spans[0].Trace {
					t.Fatalf("span %s in trace %s, want one trace per client request", s.Span, s.Trace)
				}
				if parent, ok := byID[s.Parent]; s.Parent != "" && !ok {
					t.Fatalf("span %s (%s) has unknown parent", s.Span, s.Kind)
				} else if s.Kind == obs.SpanServe && s.Parent != "" && (parent.Kind != obs.SpanUpstream || s.Edge != peer) {
					t.Fatalf("nested serve span at edge %d under a %s span", s.Edge, parent.Kind)
				}
			}
			want := map[string]int{obs.SpanServe: 2, obs.SpanHealth: 1, obs.SpanFailover: 1, obs.SpanUpstream: 1}
			if fmt.Sprint(kinds) != fmt.Sprint(want) {
				t.Fatalf("span kinds %v, want %v", kinds, want)
			}
		}},
	}
	for _, wr := range wirings {
		for _, c := range cases {
			t.Run(wr.name+"/"+c.name, func(t *testing.T) {
				c.run(t, func(p *core.Placement, o bootOpts) wiring { return wr.boot(t, sc, p, o) })
			})
		}
	}
}

// lockedBuffer is a tracer sink several servers' goroutines flush into.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// readSpans returns the spans written so far.
func readSpans(t *testing.T, tr *obs.Tracer, b *lockedBuffer) []obs.Span {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	spans, err := obs.ReadTrace(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}
