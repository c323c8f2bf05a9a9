package clusterd

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/httpcdn"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serverutil"
)

// OriginConfig parameterizes a standalone origin component.
type OriginConfig struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Metrics receives the origin's serve counters; nil builds a
	// private registry (still served at /metrics).
	Metrics *obs.Registry
	// Tracer, when non-nil, records an origin span for every fetch that
	// carries a Traceparent, nested under the calling edge's attempt.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives lifecycle lines.
	Logf func(format string, args ...any)
}

// Origin is one process serving the primary copy of every site: an
// httpcdn.Origin behind a real listener, multiplexing all sites by URL
// path, which is what the path scheme /obj/{site}/{object} already
// encodes.
type Origin struct {
	sc       *scenario.Scenario
	inj      *fault.Injector
	srv      *serverutil.Server
	reg      *obs.Registry
	versions httpcdn.Versions
}

// StartOrigin builds the scenario from params and serves it. Always
// Shutdown a started origin.
func StartOrigin(params Params, cfg OriginConfig) (*Origin, error) {
	sc, err := params.Build()
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &Origin{sc: sc, inj: fault.NewInjector(), reg: reg}

	// /admin/fault and /admin/modify stay outside the injector wrap:
	// a blackholed origin must still accept the call that clears the
	// fault. Everything a peer or prober touches goes through it.
	served := http.NewServeMux()
	served.Handle("/obj/", httpcdn.NewOrigin(sc, &o.versions, reg, cfg.Tracer))
	served.HandleFunc("/admin/ping", servePing)

	mux := serverutil.DebugMux(reg)
	mux.Handle("/obj/", o.inj.Wrap(served))
	mux.Handle("/admin/ping", o.inj.Wrap(served))
	mux.HandleFunc("/admin/fault", serveFault(o.inj))
	mux.HandleFunc("/admin/modify", o.serveModify)

	srv, err := serverutil.Start(serverutil.Config{Addr: cfg.Addr, Handler: mux, Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	o.srv = srv
	return o, nil
}

// URL returns the origin's base URL.
func (o *Origin) URL() string { return o.srv.URL() }

// Injector returns the origin's fault injector (the in-process chaos
// hook; remote drivers use POST /admin/fault).
func (o *Origin) Injector() *fault.Injector { return o.inj }

// Registry returns the origin's metrics registry.
func (o *Origin) Registry() *obs.Registry { return o.reg }

// Shutdown drains in-flight requests and stops the server.
func (o *Origin) Shutdown(ctx context.Context) error { return o.srv.Shutdown(ctx) }

// Register announces the origin to the control plane.
func (o *Origin) Register(ctx context.Context, client *http.Client, controlURL string) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return postJSON(ctx, client, controlURL+"/cluster/register",
		RegisterRequest{Kind: "origin", ID: -1, URL: o.URL()}, nil)
}

// ModifyObject bumps an object's version, changing its payload and
// invalidating the ETag every cached copy carries.
func (o *Origin) ModifyObject(site, object int) { o.versions.Bump(site, object) }

// serveModify answers POST /admin/modify?site=&object=.
func (o *Origin) serveModify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	site, err1 := strconv.Atoi(r.URL.Query().Get("site"))
	object, err2 := strconv.Atoi(r.URL.Query().Get("object"))
	if err1 != nil || err2 != nil || site < 0 || site >= o.sc.Sys.M() {
		http.Error(w, "bad site/object", http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "site %d object %d now version %d\n", site, object, o.versions.Bump(site, object))
}

// servePing answers the control plane's active health probe. It runs
// behind the fault injector on purpose: an injected fault makes probes
// fail, which is how a "killed" component shows up as ejected.
func servePing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// serveFault handles POST /admin/fault?mode=error&latency=200ms — the
// remote chaos hook. It lives outside the injector wrap so a faulted
// component can always be restored.
func serveFault(inj *fault.Injector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		mode, ok := fault.ParseMode(r.URL.Query().Get("mode"))
		if !ok {
			http.Error(w, "bad mode (want off, error, latency or blackhole)", http.StatusBadRequest)
			return
		}
		var latency time.Duration
		if s := r.URL.Query().Get("latency"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, "bad latency", http.StatusBadRequest)
				return
			}
			latency = d
		}
		inj.Set(mode, latency)
		fmt.Fprintf(w, "fault %s\n", mode)
	}
}
