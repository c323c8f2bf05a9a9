// Package serverutil holds the HTTP-daemon boilerplate shared by every
// binary in this repo that runs a long-lived server: bind a listener
// (supporting the ":0 pick a port" idiom), serve a handler in the
// background, expose the observability surface (/metrics, /debug/vars,
// /debug/pprof/) from an obs.Registry, and drain in-flight requests on
// shutdown instead of snapping connections.
//
// Every clusterd component serves through it. The server is its own
// HTTP/1.1 connection loop (conn.go), not net/http's Server: one
// goroutine per connection parses each request with http.ReadRequest
// and runs the handler on that goroutine, and a response with a
// declared length goes out as one writev of its header block and first
// body piece. The drain discipline is what the graceful-shutdown tests
// pin: after Shutdown begins, requests already accepted complete with
// their real status (zero 5xx from the shutdown itself) while new
// connections are refused.
package serverutil

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// drainTimeout bounds how long Shutdown waits for in-flight requests
// before giving up and closing connections hard.
const drainTimeout = 10 * time.Second

// Config describes one component HTTP server.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Handler serves every request. Required.
	Handler http.Handler
	// Logf, when non-nil, receives serve-loop errors (a closed listener
	// during shutdown is not reported) and handler panics.
	Logf func(format string, args ...any)
}

// Server is a running HTTP server bound to a concrete address.
type Server struct {
	cfg Config
	ln  net.Listener

	// shutting is set once Shutdown begins: idle connections close, and
	// a response in flight is the last on its connection.
	shutting atomic.Bool
	mu       sync.Mutex
	conns    map[*conn]struct{}
	active   sync.WaitGroup // connection goroutines
	done     chan struct{}  // closed when the accept loop exits
}

// Start binds cfg.Addr and serves cfg.Handler in the background. Always
// Shutdown (or Close) a started server.
func Start(cfg Config) (*Server, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("serverutil: nil handler")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serverutil: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// acceptLoop hands every accepted connection to a goroutine of its own
// until the listener closes. A failed Accept is retried with backoff, as
// net/http does for a transient error such as running out of file
// descriptors.
func (s *Server) acceptLoop() {
	defer close(s.done)
	var backoff time.Duration
	for {
		rwc, err := s.ln.Accept()
		if err != nil {
			if s.shutting.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.logf("serverutil: accept on %s: %v; retrying in %v", s.ln.Addr(), err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := newConn(s, rwc)
		s.mu.Lock()
		if s.shutting.Load() {
			s.mu.Unlock()
			rwc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.active.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// forget drops a finished connection.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.active.Done()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Addr returns the bound address (the real port when Addr was ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops accepting connections, closes the idle ones and waits
// — up to the drain timeout, or until ctx is done, whichever is sooner —
// for in-flight requests to complete; then it closes the connections
// that are left and returns the context's error. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.shutting.CompareAndSwap(false, true) {
		return nil
	}
	s.ln.Close()
	<-s.done
	s.mu.Lock()
	for c := range s.conns {
		c.closeIfIdle()
	}
	s.mu.Unlock()

	// The waiter exits with the last connection goroutine: on a timeout,
	// closing the connections below ends every handler that heeds its
	// context.
	drained := make(chan struct{})
	go func() {
		s.active.Wait()
		close(drained)
	}()
	dctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	select {
	case <-drained:
		return nil
	case <-dctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.rwc.Close()
		}
		s.mu.Unlock()
		return dctx.Err()
	}
}

// Close shuts down with a background-context drain — the deferred-close
// idiom for mains and tests.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// DebugMux returns the standard observability mux for a component:
// /metrics, /debug/vars and /debug/pprof/ from reg (nil reg yields an
// empty mux to mount component endpoints on).
func DebugMux(reg *obs.Registry) *http.ServeMux {
	if reg == nil {
		return http.NewServeMux()
	}
	return reg.DebugMux()
}

// WaitReady polls url with GET until it answers any HTTP status or the
// deadline passes — the "is the control plane up yet" loop every
// cluster binary runs at startup before registering.
func WaitReady(ctx context.Context, client *http.Client, url string, timeout time.Duration) error {
	if client == nil {
		client = &http.Client{Timeout: time.Second}
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			return nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return fmt.Errorf("serverutil: %s not ready after %v: %w", url, timeout, lastErr)
}
