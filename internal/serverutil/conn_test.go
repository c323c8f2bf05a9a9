package serverutil

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// protocolHandler is the server of the protocol tests. The path picks
// the behaviour.
func protocolHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.URL.Query().Get("say")) // no declared length
	})
	mux.HandleFunc("/len", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "5")
		io.WriteString(w, "hello")
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		io.WriteString(w, "hello")
	})
	mux.HandleFunc("/nocontent", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
		if _, err := io.WriteString(w, "body"); !errors.Is(err, http.ErrBodyNotAllowed) {
			panic(fmt.Sprintf("write to a 204: %v", err))
		}
	})
	mux.HandleFunc("/notmodified", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", `"v1"`)
		w.Header().Set("Content-Length", "5")
		w.WriteHeader(http.StatusNotModified)
	})
	mux.HandleFunc("/read", func(w http.ResponseWriter, r *http.Request) {
		n, err := io.Copy(io.Discard, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "read %d", n)
	})
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ignored")
	})
	mux.HandleFunc("/split", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Value", "a\r\nX-Injected: 1\r\n\r\nbody")
		w.Header()["Bad\r\nName"] = []string{"v"}
		io.WriteString(w, "whole")
	})
	return mux
}

func startProtocol(t testing.TB, h http.Handler) *Server {
	t.Helper()
	s, err := Start(Config{Addr: "127.0.0.1:0", Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// exchange writes send on one connection and reads n responses, each
// summarised as "status body" ("status !short" for a body cut short).
// open reports whether the connection was still open afterwards. The
// methods of the requests in send tell the reader which responses have
// no body.
func exchange(t *testing.T, addr, send string, n int) (got []string, open bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Write([]byte(send)) // may block on a large body until the server reads it
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c)
	methods := requestMethods(send)
	for i := 0; i < n; i++ {
		method := http.MethodGet
		if i < len(methods) {
			method = methods[i]
		}
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("response %d: %v (so far %q)", i+1, err, got)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			got = append(got, fmt.Sprintf("%d !short", resp.StatusCode))
			continue
		}
		got = append(got, fmt.Sprintf("%d %s", resp.StatusCode, body))
	}
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = br.ReadByte()
	var ne net.Error
	return got, errors.As(err, &ne) && ne.Timeout()
}

// requestMethods parses the well-formed requests at the start of send.
func requestMethods(send string) (methods []string) {
	br := bufio.NewReader(strings.NewReader(send))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods
		}
	}
}

func get(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }

func post(path string, body string, extra string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n" + extra + "\r\n" + body
}

// TestConnProtocol runs the HTTP/1.1 rules of the connection loop, one
// connection per case: what is answered, in what order, and whether the
// connection stays open.
func TestConnProtocol(t *testing.T) {
	s := startProtocol(t, protocolHandler())
	big := strings.Repeat("b", maxDrainBytes+1<<10)
	cases := []struct {
		name string
		send string
		n    int // responses to read
		want []string
		open bool
	}{
		{"pipelined requests are answered in order",
			get("/echo?say=1") + get("/len") + get("/echo?say=3"), 3,
			[]string{"200 1", "200 hello", "200 3"}, true},
		{"Connection: close closes after the response",
			"GET /len HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" + get("/len"), 1,
			[]string{"200 hello"}, false},
		{"HTTP/1.0 closes after the response",
			"GET /len HTTP/1.0\r\n\r\n" + get("/len"), 1,
			[]string{"200 hello"}, false},
		{"a bad request line is a 400",
			"GARBAGE\r\n\r\n", 1,
			[]string{"400 Bad Request"}, false},
		{"HTTP/1.1 without Host is a 400",
			"GET /len HTTP/1.1\r\n\r\n", 1,
			[]string{"400 Bad Request"}, false},
		{"a header block past the cap is a 431",
			"GET /len HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n", 1,
			[]string{"431 Request Header Fields Too Large"}, false},
		{"a read body keeps the connection",
			post("/read", "12345", "") + get("/len"), 2,
			[]string{"200 read 5", "200 hello"}, true},
		{"an unread body up to 256 KiB is drained",
			post("/ignore", strings.Repeat("s", maxDrainBytes), "") + get("/len"), 2,
			[]string{"200 ignored", "200 hello"}, true},
		{"an unread body past 256 KiB closes the connection",
			post("/ignore", big, "") + get("/len"), 1,
			[]string{"200 ignored"}, false},
		{"HEAD, 204 and 304 carry no body",
			"HEAD /len HTTP/1.1\r\nHost: x\r\n\r\n" + get("/nocontent") + get("/notmodified") + get("/len"), 4,
			[]string{"200 ", "204 ", "304 ", "200 hello"}, true},
		{"a body short of its declared length closes the connection",
			get("/short") + get("/len"), 1,
			[]string{"200 !short"}, false},
		{"an unknown Expect is a 417",
			post("/read", "12345", "Expect: something\r\n"), 1,
			[]string{"417 Expectation Failed"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, open := exchange(t, s.Addr(), tc.send, tc.n)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) || open != tc.open {
				t.Fatalf("got %q, open=%v; want %q, open=%v", got, open, tc.want, tc.open)
			}
		})
	}
}

// TestKeepAliveReusesConnection: sequential requests from net/http's
// client ride one connection.
func TestKeepAliveReusesConnection(t *testing.T) {
	s := startProtocol(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.RemoteAddr)
	}))
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var first string
	for i := 0; i < 5; i++ {
		resp, err := client.Get(s.URL() + "/")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if i == 0 {
			first = string(b)
		} else if string(b) != first {
			t.Fatalf("request %d came from %s, the first from %s", i+1, b, first)
		}
	}
}

// TestResponseHeaders: the loop declares the length, a sniffed type and
// the date, and no header value can split the header block.
func TestResponseHeaders(t *testing.T) {
	s := startProtocol(t, protocolHandler())
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(s.URL() + "/split")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "whole" || resp.ContentLength != 5 {
		t.Fatalf("body %q, length %d", body, resp.ContentLength)
	}
	if got := resp.Header.Get("X-Value"); got != "a  X-Injected: 1    body" {
		t.Fatalf("X-Value = %q", got)
	}
	for _, k := range []string{"X-Injected", "Bad", "Name"} {
		if _, ok := resp.Header[k]; ok {
			t.Fatalf("header %s reached the client", k)
		}
	}
	if resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" || resp.Header.Get("Date") == "" {
		t.Fatalf("Content-Type %q, Date %q", resp.Header.Get("Content-Type"), resp.Header.Get("Date"))
	}
}

// TestExpectContinue: a client that waits for 100 Continue gets it when
// the handler reads the body, then the final response.
func TestExpectContinue(t *testing.T) {
	s := startProtocol(t, protocolHandler())
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, "POST /read HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n")
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim response: %v, %v", resp, err)
	}
	io.WriteString(c, "12345")
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "read 5" {
		t.Fatalf("final response %d %q", resp.StatusCode, body)
	}
}

// connGoroutines counts the goroutines running this package's connection
// code: a connection's own, and a hang-up watcher.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("serverutil.(*conn)")) {
			n++
		}
	}
	return n
}

// TestHitStartsNoGoroutine: a handler that never asks for its context's
// Done channel runs with no goroutine beyond its connection's; one that
// does starts the hang-up watcher.
func TestHitStartsNoGoroutine(t *testing.T) {
	counts := make(chan int, 1)
	s := startProtocol(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/done" {
			_ = r.Context().Done()
		}
		counts <- connGoroutines()
	}))
	for _, tc := range []struct {
		path string
		want int
	}{{"/hit", 1}, {"/done", 2}} {
		resp, err := http.Get(s.URL() + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := <-counts; got != tc.want {
			t.Errorf("%s: %d connection goroutines in the handler, want %d", tc.path, got, tc.want)
		}
	}
}

// TestHangUpCancelsContext: a handler blocked on its context returns
// when the client hangs up, whether it asked for Done before or after
// reading the request body.
func TestHangUpCancelsContext(t *testing.T) {
	started := make(chan struct{}, 1)
	returned := make(chan error, 1)
	s := startProtocol(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		done := r.Context().Done()
		io.Copy(io.Discard, r.Body)
		started <- struct{}{}
		select {
		case <-done:
			returned <- r.Context().Err()
		case <-time.After(5 * time.Second):
			returned <- errors.New("not cancelled")
		}
	}))
	for _, send := range []string{get("/wait"), post("/wait", "body", "")} {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(c, send)
		<-started
		c.Close()
		if err := <-returned; !errors.Is(err, context.Canceled) {
			t.Fatalf("%q: handler returned with %v, want context.Canceled", send, err)
		}
	}
}

// TestWatcherByteGoesToNextRequest: the watcher reads one byte ahead;
// when that byte is the start of the next request, it is parsed with the
// rest and nothing is cancelled.
func TestWatcherByteGoesToNextRequest(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := startProtocol(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/wait" {
			_ = r.Context().Done()
			started <- struct{}{}
			<-release
		}
		if err := r.Context().Err(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, r.Method+" "+r.URL.Path)
	}))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, get("/wait"))
	<-started
	io.WriteString(c, get("/next"))
	time.Sleep(20 * time.Millisecond) // the watcher takes the 'G'
	close(release)
	br := bufio.NewReader(c)
	for _, want := range []string{"GET /wait", "GET /next"} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("got %d %q, want 200 %q", resp.StatusCode, body, want)
		}
	}
}

// TestWatcherStopsBeforeNextRequest: a watcher started in the handler is
// stopped before the next request is parsed, and a Done asked for after
// the handler returned starts none, so no read races the parse.
func TestWatcherStopsBeforeNextRequest(t *testing.T) {
	late := make(chan struct{})
	lateDone := make(chan struct{})
	s := startProtocol(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/early":
			_ = r.Context().Done()
			time.Sleep(10 * time.Millisecond) // the watcher is reading now
		case "/late":
			ctx := r.Context()
			go func() {
				<-late
				_ = ctx.Done()
				close(lateDone)
			}()
		}
		io.WriteString(w, r.Method+" "+r.URL.Path)
	}))
	for _, path := range []string{"/early", "/late"} {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got, _ := exchangeOn(t, c, get(path)); got != "200 GET "+path {
			t.Fatalf("%s: %q", path, got)
		}
		if path == "/late" {
			close(late)
			<-lateDone
		}
		for _, next := range []string{"/next", "/third"} {
			time.Sleep(20 * time.Millisecond) // a stray watcher would be reading now
			if got, _ := exchangeOn(t, c, get(next)); got != "200 GET "+next {
				t.Fatalf("after %s: %s answered %q", path, next, got)
			}
		}
	}
}

// TestShutdownClosesIdleConnections: Shutdown does not wait for a
// keep-alive connection between requests, and a response in flight when
// it begins tells its client the connection closes.
func TestShutdownClosesIdleConnections(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, err := Start(Config{Addr: "127.0.0.1:0", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
		}
		io.WriteString(w, "ok")
	})})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	got, open := exchangeOn(t, idle, get("/"))
	if got != "200 ok" || !open {
		t.Fatalf("idle connection's request: %q, open=%v", got, open)
	}
	busy, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, get("/slow"))
	<-started
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection during shutdown: %v, want EOF", err)
	}
	close(release)
	busy.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil || resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight response: %+v, %v; want 200 with Connection: close", resp, err)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
}

// exchangeOn sends one request on c and reads its response as "status
// body", leaving c open.
func exchangeOn(t *testing.T, c net.Conn, send string) (got string, open bool) {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, send)
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	return fmt.Sprintf("%d %s", resp.StatusCode, body), !resp.Close
}

// FuzzServeConn: arbitrary bytes on one connection are answered or the
// connection is closed; the loop never panics, and Shutdown returns.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		get("/len"),
		get("/echo?say=hi") + get("/short"),
		"HEAD /len HTTP/1.1\r\nHost: x\r\n\r\n",
		post("/read", "12345", ""),
		post("/ignore", "12345", "Expect: 100-continue\r\n"),
		"POST /read HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"GET /split HTTP/1.0\r\n\r\n",
		"GARBAGE\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	s, err := Start(Config{Addr: "127.0.0.1:0", Handler: protocolHandler()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		done := make(chan error, 1)
		go func() { done <- s.Close() }()
		select {
		case err := <-done:
			if err != nil {
				f.Errorf("shutdown: %v", err)
			}
		case <-time.After(drainTimeout + 5*time.Second):
			f.Error("Shutdown did not return")
		}
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			c.Write(in)
			c.(*net.TCPConn).CloseWrite()
		}()
		// Whatever the bytes, the server answers and closes within the
		// deadline: the client has said all it will.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); err != nil {
			t.Fatalf("connection neither answered nor closed: %v", err)
		}
	})
}
