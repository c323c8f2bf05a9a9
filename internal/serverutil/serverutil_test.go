package serverutil

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestStartAddrAndURL(t *testing.T) {
	s, err := Start(Config{
		Addr: "127.0.0.1:0",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "pong")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(s.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", s.URL())
	}
	resp, err := http.Get(s.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("body = %q", body)
	}
}

// TestShutdownDrainsInFlight pins the drain discipline: requests
// accepted before Shutdown complete with their real status — no 5xx
// from the shutdown itself — while connections arriving after drain
// starts are refused.
func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var served atomic.Int64
	s, err := Start(Config{
		Addr: "127.0.0.1:0",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			started <- struct{}{}
			<-release
			served.Add(1)
			io.WriteString(w, "slow-ok")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	url := s.URL()

	var wg sync.WaitGroup
	wg.Add(1)
	status := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(url + "/slow")
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started // the slow request is in flight

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Give Shutdown a moment to close the listener, then release the
	// in-flight request.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d", served.Load())
	}
	// New connections must now be refused.
	c := &http.Client{Timeout: 500 * time.Millisecond}
	if _, err := c.Get(url + "/after"); err == nil {
		t.Fatal("request after shutdown succeeded")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Handler: http.NewServeMux()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugMux(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("serverutil_test_total", "test", nil).Inc()
	s, err := Start(Config{Addr: "127.0.0.1:0", Handler: DebugMux(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "serverutil_test_total") {
			t.Fatalf("%s missing registered metric", path)
		}
	}
	// nil registry still yields a usable mux.
	if DebugMux(nil) == nil {
		t.Fatal("DebugMux(nil) = nil")
	}
}

func TestWaitReady(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Handler: http.NewServeMux()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := WaitReady(context.Background(), nil, s.URL()+"/", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// An address nothing listens on times out with the dial error wrapped.
	err = WaitReady(context.Background(), nil, "http://127.0.0.1:1/", 200*time.Millisecond)
	if err == nil {
		t.Fatal("WaitReady succeeded against a dead address")
	}
}
