// Package serverutil holds the HTTP-daemon boilerplate shared by every
// binary in this repo that runs a long-lived server: bind a listener
// (supporting the ":0 pick a port" idiom), serve a handler in the
// background, expose the observability surface (/metrics, /debug/vars,
// /debug/pprof/) from an obs.Registry, and drain in-flight requests on
// shutdown instead of snapping connections.
//
// Every clusterd component serves through it. The drain discipline is
// what the graceful-shutdown tests pin:
// after Shutdown begins, requests already accepted complete with their
// real status (zero 5xx from the shutdown itself) while new connections
// are refused.
package serverutil

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultDrainTimeout bounds how long Shutdown waits for in-flight
// requests before giving up and closing connections hard.
const DefaultDrainTimeout = 10 * time.Second

// Config describes one component HTTP server.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Handler serves every request. Required.
	Handler http.Handler
	// DrainTimeout bounds Shutdown's wait for in-flight requests;
	// 0 selects DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Logf, when non-nil, receives serve-loop errors (a closed listener
	// during shutdown is not reported).
	Logf func(format string, args ...any)
}

// Server is a running HTTP server bound to a concrete address.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// Start binds cfg.Addr and serves cfg.Handler in the background. Always
// Shutdown (or Close) a started server.
func Start(cfg Config) (*Server, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("serverutil: nil handler")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serverutil: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:  cfg,
		ln:   ln,
		srv:  &http.Server{Handler: cfg.Handler},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			if cfg.Logf != nil {
				cfg.Logf("serverutil: serve %s: %v", ln.Addr(), err)
			}
		}
	}()
	return s, nil
}

// Addr returns the bound address (the real port when Addr was ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops accepting connections and waits — up to the drain
// timeout, or until ctx is done, whichever is sooner — for in-flight
// requests to complete. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	err := s.srv.Shutdown(dctx)
	<-s.done
	return err
}

// Close shuts down with a background-context drain — the deferred-close
// idiom for mains and tests.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// ServeUntil blocks until ctx is cancelled, then drains and returns the
// shutdown error. It is the whole lifecycle of a daemon listener:
//
//	srv, err := serverutil.Start(cfg)
//	...
//	return srv.ServeUntil(ctx) // SIGINT/SIGTERM cancels ctx
func (s *Server) ServeUntil(ctx context.Context) error {
	<-ctx.Done()
	return s.Shutdown(context.Background())
}

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
