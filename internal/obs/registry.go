package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is one metric's label set (e.g. {"edge": "3", "source":
// "cache"}). Rendered sorted by key, so equal maps identify the same
// series.
type Labels map[string]string

// render formats labels as `{k="v",...}` with sorted keys, or "" when
// empty.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// series is one registered (name, labels) pair with exactly one of the
// metric fields set.
type series struct {
	name    string
	labels  string // rendered
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series of one metric name under a shared HELP and
// TYPE line.
type family struct {
	name string
	help string
	typ  string // counter | gauge | histogram
}

// Registry holds named metrics and renders them as Prometheus text
// exposition format or expvar-style JSON. The zero value is not usable;
// call NewRegistry. Get-or-create accessors and rendering are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	series   map[string]*series // key: name + rendered labels
	order    []*series          // registration order, sorted at render time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		series:   make(map[string]*series),
	}
}

// lookup returns the series for (name, labels), creating it via mk on
// first use, and panics when the name is already registered with a
// different metric type.
func (r *Registry) lookup(name, help, typ string, labels Labels, mk func() *series) *series {
	rendered := labels.render()
	key := name + rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
		}
	} else {
		r.families[name] = &family{name: name, help: help, typ: typ}
	}
	if s, ok := r.series[key]; ok {
		return s
	}
	s := mk()
	s.name = name
	s.labels = rendered
	r.series[key] = s
	r.order = append(r.order, s)
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. help is recorded on the first registration of the name.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, "counter", labels, func() *series {
		return &series{counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, "gauge", labels, func() *series {
		return &series{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time (e.g. bytes resident in a cache). fn must be safe to call
// concurrently. Re-registering the same (name, labels) keeps the first
// function.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, "gauge", labels, func() *series {
		return &series{gaugeFn: fn}
	})
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds on first use (later calls keep the first
// bounds).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	return r.lookup(name, help, "histogram", labels, func() *series {
		return &series{hist: NewHistogram(bounds)}
	}).hist
}

// snapshot returns the series sorted by (name, labels) plus the family
// table, under the read lock.
func (r *Registry) snapshot() ([]*series, map[string]*family) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]*series(nil), r.order...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	fams := make(map[string]*family, len(r.families))
	for k, v := range r.families {
		fams[k] = v
	}
	return out, fams
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name, series
// sorted by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ordered, fams := r.snapshot()
	var b strings.Builder
	lastFamily := ""
	for _, s := range ordered {
		if s.name != lastFamily {
			f := fams[s.name]
			if f.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
			lastFamily = s.name
		}
		switch {
		case s.counter != nil:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.gauge.Value())
		case s.gaugeFn != nil:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(s.gaugeFn()))
		case s.hist != nil:
			writePrometheusHistogram(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePrometheusHistogram renders one histogram series: cumulative
// `_bucket` lines with `le` labels, then `_sum` and `_count`.
func writePrometheusHistogram(b *strings.Builder, s *series) {
	h := s.hist
	counts := h.BucketCounts()
	bounds := h.bounds
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, withLabel(s.labels, "le", formatFloat(bound)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, withLabel(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", s.name, s.labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", s.name, s.labels, h.Count())
}

// withLabel splices one extra label into an already-rendered label set.
func withLabel(rendered, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders an expvar-style JSON object: one top-level key per
// series (name plus rendered labels); counters and gauges as numbers,
// histograms as {count, sum, p50, p90, p99}.
func (r *Registry) WriteJSON(w io.Writer) error {
	ordered, _ := r.snapshot()
	out := make(map[string]any, len(ordered))
	for _, s := range ordered {
		key := s.name + s.labels
		switch {
		case s.counter != nil:
			out[key] = s.counter.Value()
		case s.gauge != nil:
			out[key] = s.gauge.Value()
		case s.gaugeFn != nil:
			out[key] = s.gaugeFn()
		case s.hist != nil:
			out[key] = map[string]any{
				"count": s.hist.Count(),
				"sum":   s.hist.Sum(),
				"p50":   s.hist.Quantile(0.50),
				"p90":   s.hist.Quantile(0.90),
				"p99":   s.hist.Quantile(0.99),
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the Prometheus text format (for /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the expvar-style JSON (for /debug/vars).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}

// DebugMux returns an http.ServeMux serving the full observability
// surface: /metrics (Prometheus text), /debug/vars (JSON) and
// /debug/pprof/ (the standard runtime profiles) — the endpoint set
// a cdnd control plane's -addr exposes.
func (r *Registry) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", r.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
