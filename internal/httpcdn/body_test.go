package httpcdn

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// The wire format's oracles: the builders this package shipped before
// payloads became slices of patternTable and tags strconv appends.

func oracleWritePattern(w io.Writer, site, object, version int, size int64) {
	var chunk [4096]byte
	seed := byte(site*31 + object*7 + version*13)
	for i := range chunk {
		chunk[i] = seed + byte(i)
	}
	for size > 0 {
		n := int64(len(chunk))
		if n > size {
			n = size
		}
		if _, err := w.Write(chunk[:n]); err != nil {
			return
		}
		size -= n
	}
}

func oracleVerifyBody(body []byte, site, object, version int) bool {
	seed := byte(site*31 + object*7 + version*13)
	for i, b := range body {
		if b != seed+byte(i%4096) {
			return false
		}
	}
	return true
}

func oracleObjectPath(site, object int) string {
	return fmt.Sprintf("/obj/%d/%d", site, object)
}

func oracleETagFor(site, object, version int) string {
	return fmt.Sprintf("%q", fmt.Sprintf("/obj/%d/%d@%d", site, object, version))
}

// patternSizes straddle the pattern's period, the old 4 KiB chunk and
// the 64 KiB piece.
var patternSizes = []int64{1, 255, 256, 257, 4095, 4096, 4097, 65535, 65536, 65537, 200000}

// TestPatternMatchesOracle: for every seed (version v at site 0, object
// 0 has seed 13·v mod 256, which visits all 256) and every size, the
// table-backed body is byte-identical to the fill loop's, and each
// implementation's VerifyBody accepts the other's bytes.
func TestPatternMatchesOracle(t *testing.T) {
	seen := make(map[int]bool)
	var got, want bytes.Buffer
	for version := 0; version < 256; version++ {
		seen[patternSeed(0, 0, version)] = true
		for _, size := range patternSizes {
			got.Reset()
			want.Reset()
			WritePattern(&got, 0, 0, version, size)
			oracleWritePattern(&want, 0, 0, version, size)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("version %d size %d: body differs from the fill loop's", version, size)
			}
			if !VerifyBody(want.Bytes(), 0, 0, version) || !oracleVerifyBody(got.Bytes(), 0, 0, version) {
				t.Fatalf("version %d size %d: body does not verify", version, size)
			}
		}
	}
	if len(seen) != 256 {
		t.Fatalf("covered %d of 256 seeds", len(seen))
	}
}

// TestVerifyBodyRejectsOneFlippedByte at the first, last and
// piece-boundary offsets of a three-piece body, and a body of another
// seed.
func TestVerifyBodyRejectsOneFlippedByte(t *testing.T) {
	const size = 200000
	var buf bytes.Buffer
	WritePattern(&buf, 2, 7, 3, size)
	body := buf.Bytes()
	for _, off := range []int{0, 1, 255, 256, 4095, 4096, patternPiece - 1, patternPiece, patternPiece + 1,
		2*patternPiece - 1, 2 * patternPiece, 3*patternPiece - 1, 3 * patternPiece, size - 1} {
		body[off] ^= 0x01
		if VerifyBody(body, 2, 7, 3) {
			t.Errorf("flipped byte at offset %d not detected", off)
		}
		if oracleVerifyBody(body, 2, 7, 3) {
			t.Errorf("oracle misses the flipped byte at offset %d", off)
		}
		body[off] ^= 0x01
	}
	if !VerifyBody(body, 2, 7, 3) {
		t.Fatal("restored body does not verify")
	}
	if VerifyBody(body, 2, 7, 4) {
		t.Fatal("body verified as another version")
	}
}

// TestTagsMatchOracle: the append-built path and tag equal the Sprintf
// forms over negative, zero and extreme ints.
func TestTagsMatchOracle(t *testing.T) {
	ints := []int{math.MinInt, math.MinInt32, -1000, -1, 0, 1, 9, 10, 99, 12345, math.MaxInt32, math.MaxInt}
	for _, site := range ints {
		for _, object := range ints {
			if got, want := ObjectPath(site, object), oracleObjectPath(site, object); got != want {
				t.Fatalf("ObjectPath(%d, %d) = %q, want %q", site, object, got, want)
			}
			for _, version := range ints {
				if got, want := ETagFor(site, object, version), oracleETagFor(site, object, version); got != want {
					t.Fatalf("ETagFor(%d, %d, %d) = %q, want %q", site, object, version, got, want)
				}
			}
		}
	}
}

// countingWriter is an http.ResponseWriter that records every body
// Write.
type countingWriter struct {
	h      http.Header
	status int
	writes []int
	body   bytes.Buffer
}

func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) WriteHeader(status int) {
	w.status = status
}
func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.body.Write(p)
}

// listen serves h on a loopback listener for the length of the test.
func listen(t testing.TB, h http.Handler) (url string) {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// testEngine is edge 0's engine with one site replicated locally, a
// cache of cacheBytes, and originURL as every site's origin.
func testEngine(t testing.TB, sc *scenario.Scenario, cfg Config, cacheBytes int64, originURL string) (e *Engine, replicated int, origin *Tracker) {
	t.Helper()
	pl := core.NewPlacement(sc.Sys)
	replicated = -1
	for j := 0; j < sc.Sys.M() && replicated < 0; j++ {
		if pl.CanReplicate(0, j) {
			replicated = j
		}
	}
	if replicated < 0 {
		t.Fatal("no site fits edge 0")
	}
	if err := pl.Replicate(0, replicated); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	origin = NewTracker(reg, "origin", 0)
	ecfg := EngineConfig{Config: cfg, ID: 0, Scenario: sc, Placement: pl}
	ecfg.Metrics = reg
	roster := Roster{}
	for j := 0; j < sc.Sys.M(); j++ {
		ecfg.OriginHealth = append(ecfg.OriginHealth, origin)
		roster.Origins = append(roster.Origins, originURL)
	}
	for i := 0; i < sc.Sys.N(); i++ {
		ecfg.PeerHealth = append(ecfg.PeerHealth, NewTracker(reg, "edge", i))
	}
	e = NewEngine(ecfg)
	t.Cleanup(e.CloseIdleConnections)
	e.cache.Resize(cacheBytes)
	e.SetRoster(roster)
	return e, replicated, origin
}

// serve drives one request through the engine's handler.
func serve(e *Engine, site, object int) *countingWriter {
	w := &countingWriter{h: make(http.Header)}
	e.ServeHTTP(w, httptest.NewRequest(http.MethodGet, ObjectPath(site, object), nil))
	return w
}

// TestOneWritePerBody is the serving rule itself: a body leaves the edge
// in one Write whether it is a replica's, a cached one or one relayed
// from the origin.
func TestOneWritePerBody(t *testing.T) {
	sc := smallScenario(t)
	// The subtest is named by the object cap it serves under.
	t.Run(fmt.Sprint(MaxObjectBytes), func(t *testing.T) {
		var versions Versions
		e, replicated, _ := testEngine(t, sc, Config{}, 64<<20, listen(t, NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
		other := (replicated + 1) % sc.Sys.M()
		// The largest object of each site: capped at MaxObjectBytes when the
		// catalog's size is over it.
		largest := func(site int) (object int) {
			for o := 1; o <= len(sc.Work.Sites[site].Objects); o++ {
				if object == 0 || sc.Work.Size(site, o) > sc.Work.Size(site, object) {
					object = o
				}
			}
			return object
		}
		for _, tc := range []struct {
			site   int
			source string
		}{
			{replicated, SourceReplica},
			{other, SourceOrigin},
			{other, SourceCache},
		} {
			object := largest(tc.site)
			size := objectSize(sc, tc.site, object)
			w := serve(e, tc.site, object)
			if w.status != http.StatusOK || w.h.Get("X-Cdn-Source") != tc.source {
				t.Fatalf("%s: status %d source %q", tc.source, w.status, w.h.Get("X-Cdn-Source"))
			}
			if int64(w.body.Len()) != size || !VerifyBody(w.body.Bytes(), tc.site, object, 0) {
				t.Fatalf("%s: wrong body (%d bytes, want %d)", tc.source, w.body.Len(), size)
			}
			// Every object response declares its length, tag and type, so no
			// server has to buffer or sniff it.
			for key, want := range map[string]string{
				"Content-Length": fmt.Sprint(size),
				"Etag":           oracleETagFor(tc.site, object, 0),
				"Content-Type":   "application/octet-stream",
			} {
				if got := w.h.Values(key); len(got) != 1 || got[0] != want {
					t.Errorf("%s: %s %q, want %q", tc.source, key, got, want)
				}
			}
			if len(w.writes) != 1 {
				t.Errorf("%s: %d-byte body left in %d Writes %v, want 1", tc.source, size, len(w.writes), w.writes)
			}
		}
	})
}

// TestServeHitAllocs pins the hit path's own allocations: the response's
// Content-Length and Etag strings and the array of their header slots.
// (With Sprintf tags, Header.Set and a 4 KiB chunk that escaped to the
// heap it was 8.)
func TestServeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sc := smallScenario(t)
	var versions Versions
	e, replicated, _ := testEngine(t, sc, Config{}, 64<<20, listen(t, NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
	other := (replicated + 1) % sc.Sys.M()
	if w := serve(e, other, 1); w.h.Get("X-Cdn-Source") != SourceOrigin {
		t.Fatalf("priming fetch: source %q", w.h.Get("X-Cdn-Source"))
	}
	for _, tc := range []struct {
		site   int
		source string
	}{{replicated, SourceReplica}, {other, SourceCache}} {
		w := &discardWriter{h: make(http.Header)}
		r := httptest.NewRequest(http.MethodGet, ObjectPath(tc.site, 1), nil)
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			e.ServeHTTP(w, r)
		})
		if got := w.h.Get("X-Cdn-Source"); got != tc.source {
			t.Fatalf("served from %q, want %q", got, tc.source)
		}
		if allocs > 3 {
			t.Errorf("%s hit: %.0f allocs per request, want at most 3", tc.source, allocs)
		}
	}
}

// TestServeMissAllocs pins the allocations of a miss relayed from an
// origin over loopback: the engine's fetch and relay, the upstream round
// trip on the caller's goroutine, and the origin's handler, which runs in
// the same process. (On net/http's Transport, with its per-connection
// read and write loops, it was 85.)
func TestServeMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sc := smallScenario(t)
	var versions Versions
	e, replicated, _ := testEngine(t, sc, Config{}, 0, listen(t, NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
	w := &discardWriter{h: make(http.Header)}
	r := httptest.NewRequest(http.MethodGet, ObjectPath((replicated+1)%sc.Sys.M(), 1), nil)
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		e.ServeHTTP(w, r)
	})
	if got := w.h.Get("X-Cdn-Source"); got != SourceOrigin {
		t.Fatalf("served from %q, want origin", got)
	}
	if allocs > 70 {
		t.Errorf("miss: %.0f allocs per request, want at most 70", allocs)
	}
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkServeHit(b *testing.B) {
	sc := smallScenario(b)
	var versions Versions
	e, replicated, _ := testEngine(b, sc, Config{}, 64<<20, listen(b, NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
	w := &discardWriter{h: make(http.Header)}
	r := httptest.NewRequest(http.MethodGet, ObjectPath(replicated, 1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		e.ServeHTTP(w, r)
	}
}

// BenchmarkServeMiss is a miss relayed from an origin over loopback: the
// cache holds nothing, so every request pays the upstream hop.
func BenchmarkServeMiss(b *testing.B) {
	sc := smallScenario(b)
	var versions Versions
	e, replicated, _ := testEngine(b, sc, Config{}, 0, listen(b, NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
	w := &discardWriter{h: make(http.Header)}
	r := httptest.NewRequest(http.MethodGet, ObjectPath((replicated+1)%sc.Sys.M(), 1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		e.ServeHTTP(w, r)
	}
	if st := e.Stats(); st.OriginFetch != int64(b.N) {
		b.Fatalf("%d of %d requests reached the origin", st.OriginFetch, b.N)
	}
}

// TestUpstreamConnectionsAreReused: bursts of eight concurrent misses to
// one origin ride the connections the first bursts opened. (On
// http.DefaultTransport, which keeps two idle connections per host,
// every burst redialled six: ~600 over the run.)
//
// The bound is 2·workers, not workers: a response's connection goes back
// to the idle pool from the transport's read loop, after the caller has
// its body, so the next burst can start while some of the previous
// burst's connections are still on their way back and dial for them. At
// most workers connections are ever on their way back and the pool keeps
// every connection it is handed, so a burst dials only while fewer than
// 2·workers exist: reuse stays at or under 2·workers however the host
// schedules, and per-burst redialling lands far above it.
func TestUpstreamConnectionsAreReused(t *testing.T) {
	const workers, rounds = 8, 100
	sc := smallScenario(t)
	var versions Versions
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(NewOrigin(sc, &versions, obs.NewRegistry(), nil))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	// The engine's cache holds nothing, so every request is a miss.
	e, replicated, _ := testEngine(t, sc, Config{}, 0, srv.URL)
	site := (replicated + 1) % sc.Sys.M()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(object int) {
				defer wg.Done()
				if w := serve(e, site, object); w.status != http.StatusOK {
					t.Errorf("round %d object %d: status %d", round, object, w.status)
				}
			}(1 + g)
		}
		wg.Wait()
	}
	if st := e.Stats(); st.OriginFetch != workers*rounds {
		t.Fatalf("%d of %d requests were origin fetches", st.OriginFetch, workers*rounds)
	}
	if n := opened.Load(); n > 2*workers {
		t.Fatalf("%d misses in bursts of %d opened %d upstream connections, want at most %d", workers*rounds, workers, n, 2*workers)
	}
}

// TestUpstreamBodyIsBounded: an upstream body over MaxObjectBytes —
// declared so, or run past it without a declared length
// — or short of its Content-Length is an upstream-status failure that
// counts against the upstream's health and is neither cached nor
// relayed; a chunked body inside the cap is served.
func TestUpstreamBodyIsBounded(t *testing.T) {
	sc := smallScenario(t)
	pattern := func(n int) []byte {
		var buf bytes.Buffer
		WritePattern(&buf, 0, 0, 0, int64(n))
		return buf.Bytes()
	}
	// chunked sends n bytes with no Content-Length.
	chunked := func(w http.ResponseWriter, n int) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		w.Write(pattern(n))
	}
	for _, tc := range []struct {
		name     string
		upstream http.HandlerFunc
		ok       bool
	}{
		{"declared over the cap", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", fmt.Sprint(MaxObjectBytes+1))
			w.Write(pattern(MaxObjectBytes + 1))
		}, false},
		{"chunked past the cap", func(w http.ResponseWriter, r *http.Request) {
			chunked(w, MaxObjectBytes+1)
		}, false},
		{"short of its Content-Length", func(w http.ResponseWriter, r *http.Request) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			defer conn.Close()
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n%s", pattern(60))
			buf.Flush()
		}, false},
		{"chunked inside the cap", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Etag", ETagFor(0, 0, 0))
			chunked(w, MaxObjectBytes)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{FailThreshold: 1}
			cfg.Retry.Attempts = 1
			e, replicated, origin := testEngine(t, sc, cfg, 64<<20, listen(t, tc.upstream))
			w := serve(e, (replicated+1)%sc.Sys.M(), 1)
			if tc.ok {
				if w.status != http.StatusOK || w.body.Len() != MaxObjectBytes || len(w.writes) != 1 {
					t.Fatalf("status %d, %d bytes in %d writes; want the %d-byte body relayed", w.status, w.body.Len(), len(w.writes), MaxObjectBytes)
				}
				if e.cache.Len() != 1 {
					t.Fatal("relayed body was not cached")
				}
				return
			}
			if w.status != http.StatusBadGateway || w.h.Get(ErrorHeader) != "upstream-status" {
				t.Fatalf("status %d class %q (%d-byte body), want 502 upstream-status", w.status, w.h.Get(ErrorHeader), w.body.Len())
			}
			if w.body.Len() > 1024 {
				t.Fatalf("%d bytes of the upstream's body were relayed", w.body.Len())
			}
			if e.cache.Len() != 0 {
				t.Fatal("a refused body was cached")
			}
			if !origin.IsEjected() {
				t.Fatal("the failure did not count against the upstream's health")
			}
		})
	}
}

// TestBoundedBodyFailsOver: a peer whose body breaks the cap is passed
// over for the next candidate, the origin, like any other failed fetch.
func TestBoundedBodyFailsOver(t *testing.T) {
	sc := smallScenario(t)
	var versions Versions
	var cfg Config
	cfg.Retry.Attempts = 1
	e, _, _ := testEngine(t, sc, cfg, 64<<20, listen(t, NewOrigin(sc, &versions, obs.NewRegistry(), nil)))
	// Peer 1 holds a site whose origin is moved farther from edge 0 than
	// the peer is, so that the peer is tried first.
	const peer = 1
	pl := e.Placement().Clone()
	site := -1
	for j := 0; j < sc.Sys.M() && site < 0; j++ {
		if !pl.Has(0, j) && pl.CanReplicate(peer, j) {
			site = j
		}
	}
	if site < 0 {
		t.Fatal("no site fits the peer")
	}
	if err := pl.Replicate(peer, site); err != nil {
		t.Fatal(err)
	}
	sc.Sys.CostOrigin[0][site] = sc.Sys.CostServer[0][peer] + 1
	e.SetPlacement(pl)
	roster := *e.roster.Load()
	roster.Peers = make([]string, sc.Sys.N())
	roster.Peers[peer] = listen(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, MaxObjectBytes+1))
	}))
	e.SetRoster(roster)

	w := serve(e, site, 1)
	if w.status != http.StatusOK || w.h.Get("X-Cdn-Source") != SourceOrigin || !VerifyBody(w.body.Bytes(), site, 1, 0) {
		t.Fatalf("status %d source %q: want the origin's body after the peer's was refused", w.status, w.h.Get("X-Cdn-Source"))
	}
	if st := e.cfg.PeerHealth[peer].Snapshot("edge", peer, time.Now()); st.ConsecutiveFailures != 1 {
		t.Fatalf("peer health after its refused body: %+v", st)
	}
}
