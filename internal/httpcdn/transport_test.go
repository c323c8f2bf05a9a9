package httpcdn

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer serves h and counts the connections clients open to it.
func countingServer(t *testing.T, h http.Handler) (srv *httptest.Server, opened *atomic.Int64) {
	t.Helper()
	opened = new(atomic.Int64)
	srv = httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, opened
}

// get is one GET through rt under ctx; it returns the response with its
// body unread.
func get(t *testing.T, ctx context.Context, rt http.RoundTripper, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func idleConns(tr *transport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, conns := range tr.idle {
		n += len(conns)
	}
	return n
}

// TestTransportPool: a response read to EOF hands its connection back,
// so sequential requests ride one connection, and the pool keeps at most
// upstreamIdleConns connections per host, most recently used first.
func TestTransportPool(t *testing.T) {
	srv, opened := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello")
	}))
	tr := newTransport()
	defer tr.CloseIdleConnections()
	for i := 0; i < 20; i++ {
		resp := get(t, context.Background(), tr, srv.URL)
		body, err := io.ReadAll(resp.Body)
		if err != nil || string(body) != "hello" {
			t.Fatalf("request %d: %q, %v", i, body, err)
		}
		if idleConns(tr) != 1 {
			t.Fatalf("request %d: %d idle connections after EOF, want 1", i, idleConns(tr))
		}
		resp.Body.Close()
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("20 sequential requests opened %d connections, want 1", n)
	}

	// The bound and the order, on unconnected pipes.
	tr.CloseIdleConnections()
	var conns []*persistConn
	for i := 0; i < upstreamIdleConns+3; i++ {
		a, b := net.Pipe()
		defer b.Close()
		c := &persistConn{Conn: a}
		conns = append(conns, c)
		tr.putIdle("h:1", c)
	}
	if n := idleConns(tr); n != upstreamIdleConns {
		t.Fatalf("pool holds %d connections to one host, want %d", n, upstreamIdleConns)
	}
	if c := tr.takeIdle("h:1"); c != conns[upstreamIdleConns-1] {
		t.Fatal("takeIdle did not return the most recently pooled connection")
	}
	if _, err := conns[upstreamIdleConns].Write([]byte("x")); err == nil {
		t.Fatal("a connection past the bound was kept open")
	}
	if tr.takeIdle("other:1") != nil {
		t.Fatal("a connection to another host was handed out")
	}
}

// TestTransportRelease: a body closed before EOF closes its connection
// without draining it (here the body never ends), a response that says
// Connection: close is not reused, and an empty body (304) hands its
// connection back at once.
func TestTransportRelease(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	srv, opened := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/endless":
			w.WriteHeader(http.StatusOK)
			chunk := strings.Repeat("x", 1024)
			for {
				if _, err := io.WriteString(w, chunk); err != nil {
					return
				}
				w.(http.Flusher).Flush()
				select {
				case <-stop:
					return
				case <-r.Context().Done():
					return
				default:
				}
			}
		case "/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, "bye")
		case "/304":
			w.WriteHeader(http.StatusNotModified)
		default:
			io.WriteString(w, "ok")
		}
	}))
	tr := newTransport()
	defer tr.CloseIdleConnections()
	readAll := func(path string) {
		t.Helper()
		resp := get(t, context.Background(), tr, srv.URL+path)
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
	}

	resp := get(t, context.Background(), tr, srv.URL+"/endless")
	if _, err := io.ReadFull(resp.Body, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp.Body.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close before EOF is draining an endless body")
	}
	if idleConns(tr) != 0 {
		t.Fatal("a body closed before EOF handed its connection back")
	}

	readAll("/close")
	if idleConns(tr) != 0 {
		t.Fatal("a Connection: close response was pooled")
	}
	before := opened.Load()
	resp = get(t, context.Background(), tr, srv.URL+"/304")
	if resp.StatusCode != http.StatusNotModified || idleConns(tr) != 1 {
		t.Fatalf("304: status %d, %d idle connections before its body is touched; want 1", resp.StatusCode, idleConns(tr))
	}
	resp.Body.Close()
	readAll("/")
	if n := opened.Load() - before; n != 1 {
		t.Fatalf("a 304 then a 200 opened %d connections, want 1", n)
	}
}

// TestTransportConcurrentClose: a body read to EOF on one goroutine and
// closed on another hands its connection back at most once, whichever
// wins, and a pooled connection still works.
func TestTransportConcurrentClose(t *testing.T) {
	srv, _ := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("y", 8<<10))
	}))
	tr := newTransport()
	defer tr.CloseIdleConnections()
	for i := 0; i < 50; i++ {
		resp := get(t, context.Background(), tr, srv.URL)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, resp.Body)
		}()
		go func() {
			defer wg.Done()
			resp.Body.Close()
		}()
		wg.Wait()
		resp.Body.Close()
		if n := idleConns(tr); n > 1 {
			t.Fatalf("round %d: %d idle connections, want at most 1", i, n)
		}
	}
	resp := get(t, context.Background(), tr, srv.URL)
	if body, err := io.ReadAll(resp.Body); err != nil || len(body) != 8<<10 {
		t.Fatalf("after the races: %d bytes, %v", len(body), err)
	}
}

// TestTransportContextInterrupts: the request's context ends blocked
// I/O — waiting for the response, and mid-body — and reports itself
// first, so the caller sees ctx.Err() set whenever a read fails for it.
// The interrupted connection is never pooled.
func TestTransportContextInterrupts(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, _ := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall-body" {
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, "partial")
			w.(http.Flusher).Flush()
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	tr := newTransport()
	defer tr.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/stall-head", nil)
	start := time.Now()
	if _, err := tr.RoundTrip(req); err == nil || ctx.Err() == nil {
		t.Fatalf("stalled response: err %v, ctx.Err %v; want both set", err, ctx.Err())
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the deadline took %v to interrupt the read", d)
	}

	ctx, cancel = context.WithCancel(context.Background())
	resp := get(t, ctx, tr, srv.URL+"/stall-body")
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := io.ReadAll(resp.Body); err == nil || ctx.Err() == nil {
		t.Fatalf("stalled body: err %v, ctx.Err %v; want both set", err, ctx.Err())
	}
	resp.Body.Close()
	if idleConns(tr) != 0 {
		t.Fatal("an interrupted connection was pooled")
	}
}

// TestTransportRetriesStaleConnection: a pooled connection its server
// closed is retried once on a fresh dial; a fresh connection that fails
// is not retried; a scheme other than http is refused.
func TestTransportRetriesStaleConnection(t *testing.T) {
	var hangUp atomic.Bool
	srv, opened := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hangUp.Load() {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
		io.WriteString(w, "ok")
	}))
	tr := newTransport()
	defer tr.CloseIdleConnections()
	resp := get(t, context.Background(), tr, srv.URL)
	io.ReadAll(resp.Body)
	srv.CloseClientConnections()
	resp = get(t, context.Background(), tr, srv.URL)
	if body, err := io.ReadAll(resp.Body); err != nil || string(body) != "ok" {
		t.Fatalf("after the server closed the idle connection: %q, %v", body, err)
	}
	if n := opened.Load(); n != 2 {
		t.Fatalf("%d connections opened, want 2 (the stale one replaced once)", n)
	}

	hangUp.Store(true)
	tr.CloseIdleConnections()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	if _, err := tr.RoundTrip(req); err == nil {
		t.Fatal("a server that hangs up answered")
	}
	if n := opened.Load(); n != 3 {
		t.Fatalf("%d connections opened, want 3: a fresh connection's failure is not retried", n)
	}

	req, _ = http.NewRequest(http.MethodGet, strings.Replace(srv.URL, "http:", "https:", 1), nil)
	if _, err := tr.RoundTrip(req); err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("https upstream: %v, want a scheme error", err)
	}
}
