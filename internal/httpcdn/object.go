package httpcdn

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// ObjectPath builds the canonical object URL path.
func ObjectPath(site, object int) string {
	return fmt.Sprintf("/obj/%d/%d", site, object)
}

// ParseObjectPath extracts (site, object) from /obj/{site}/{object} and
// validates both against the scenario's catalog.
func ParseObjectPath(sc *scenario.Scenario, path string) (site, object int, err error) {
	rest, ok := strings.CutPrefix(strings.TrimPrefix(path, "/"), "obj/")
	s, o, ok2 := strings.Cut(rest, "/")
	if !ok || !ok2 || strings.Contains(o, "/") {
		return 0, 0, fmt.Errorf("httpcdn: bad path %q", path)
	}
	site, err = strconv.Atoi(s)
	if err != nil || site < 0 || site >= sc.Sys.M() {
		return 0, 0, fmt.Errorf("httpcdn: bad site in %q", path)
	}
	object, err = strconv.Atoi(o)
	if err != nil || object < 1 || object > len(sc.Work.Sites[site].Objects) {
		return 0, 0, fmt.Errorf("httpcdn: bad object in %q", path)
	}
	return site, object, nil
}

// objectSize is the served payload size for (site, object): the catalog
// size capped so heavy-tailed catalogs do not ship tens of megabytes.
func objectSize(sc *scenario.Scenario, site, object int, maxBytes int64) int64 {
	sz := sc.Work.Size(site, object)
	if sz > maxBytes {
		sz = maxBytes
	}
	if sz < 1 {
		sz = 1
	}
	return sz
}

// writeObject streams the deterministic payload of the given version
// with the standard CDN response headers.
func writeObject(w http.ResponseWriter, sc *scenario.Scenario, site, object, version int, maxBytes int64, source string) {
	size := objectSize(sc, site, object, maxBytes)
	w.Header().Set("X-Cdn-Source", source)
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("Etag", ETagFor(site, object, version))
	w.WriteHeader(http.StatusOK)
	WritePattern(w, site, object, version, size)
}

// WritePattern emits the deterministic byte pattern of an object version.
func WritePattern(w io.Writer, site, object, version int, size int64) {
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

// VerifyBody checks that body matches the deterministic pattern of the
// given object version.
func VerifyBody(body []byte, site, object, version int) bool {
	seed := byte(site*31 + object*7 + version*13)
	for i, b := range body {
		if b != seed+byte(i%4096) {
			return false
		}
	}
	return true
}

// ETagFor is the strong validator origins attach and edges echo back.
func ETagFor(site, object, version int) string {
	return fmt.Sprintf("%q", fmt.Sprintf("/obj/%d/%d@%d", site, object, version))
}

// VersionFromETag parses the version out of an Etag header produced by
// ETagFor; it returns 0 for unrecognized tags.
func VersionFromETag(etag string) int {
	at := strings.LastIndexByte(etag, '@')
	if at < 0 {
		return 0
	}
	end := at + 1
	for end < len(etag) && etag[end] >= '0' && etag[end] <= '9' {
		end++
	}
	v, err := strconv.Atoi(etag[at+1 : end])
	if err != nil {
		return 0
	}
	return v
}

// Versions is an origin's object-version table, safe for concurrent use.
// The zero value is a catalog at version 0.
type Versions struct {
	mu sync.Mutex
	v  map[cache.Key]int
}

// Get returns the current version of an object.
func (t *Versions) Get(site, object int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.v[cache.Key{Site: site, Object: object}]
}

// Bump moves an object to its next version — changing its payload and
// invalidating the ETag every cached copy carries — and returns it.
func (t *Versions) Bump(site, object int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.v == nil {
		t.v = make(map[cache.Key]int)
	}
	k := cache.Key{Site: site, Object: object}
	t.v[k]++
	return t.v[k]
}

// Origin is the http.Handler of a primary server: it answers GET
// /obj/{site}/{object} with the current version's payload, and a
// conditional GET whose If-None-Match validator still matches with 304.
type Origin struct {
	sc       *scenario.Scenario
	site     int // the one site served, or -1 for every site
	maxBytes int64
	versions *Versions
	spans    *obs.Tracer

	served, notModified, notFound *obs.Counter
}

// NewOrigin builds the handler of site's primary server (site -1: one
// server multiplexing every site by path). Origin spans go to spans when
// it is non-nil and the request carries a Traceparent.
func NewOrigin(sc *scenario.Scenario, site int, maxBytes int64, versions *Versions, reg *obs.Registry, spans *obs.Tracer) *Origin {
	if maxBytes <= 0 {
		maxBytes = 64 << 10
	}
	return &Origin{
		sc: sc, site: site, maxBytes: maxBytes, versions: versions, spans: spans,
		served: reg.Counter("cdn_origin_requests_total",
			"Requests served by the origin.", nil),
		notModified: reg.Counter("cdn_origin_not_modified_total",
			"Conditional GETs answered 304.", nil),
		notFound: reg.Counter("cdn_origin_notfound_total",
			"Requests for sites or objects outside the catalog (404s).", nil),
	}
}

func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	site, object, err := ParseObjectPath(o.sc, r.URL.Path)
	if err != nil || o.site >= 0 && site != o.site {
		http.NotFound(w, r)
		o.notFound.Inc()
		return
	}
	o.served.Inc()
	// An incoming Traceparent stitches the origin's work into the
	// caller's trace (the parent is the edge's upstream-attempt span).
	var sp *Span
	if trace, parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		sp = NewSpan(o.spans, obs.SpanOrigin, trace, parent, site, site, object)
	}
	defer sp.End()
	version := o.versions.Get(site, object)
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == ETagFor(site, object, version) {
		o.notModified.Inc()
		sp.Attr("status", "304")
		w.Header().Set("Etag", inm)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	sp.Attr("status", "200")
	writeObject(w, o.sc, site, object, version, o.maxBytes, SourceOrigin)
}

// FetchResult describes one client fetch from an edge.
type FetchResult struct {
	Source string
	Bytes  int64
	// Version is the object version the response body carried (parsed
	// from its ETag) — stale serves show an outdated version.
	Version int
	Latency time.Duration
}

// Get fetches (site, object) from the edge at edgeURL and verifies the
// payload against the pattern of the version its ETag declares. Failures
// come wrapped in the package's sentinel errors (errors.Is):
// ErrEdgeTimeout when ctx ran out, ErrEdgeDown when the edge was
// unreachable, ErrOriginDown / ErrPeerDown / ErrUpstreamStatus /
// ErrEdgeTimeout when the edge reported that class of upstream failure,
// ErrNotFound for a 404, ErrBadStatus for other non-200 answers and
// ErrCorruptPayload for wrong bytes.
func Get(ctx context.Context, client *http.Client, edgeURL string, site, object int) (FetchResult, error) {
	start := time.Now()
	if edgeURL == "" {
		return FetchResult{}, fmt.Errorf("%w: no address", ErrEdgeDown)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, edgeURL+ObjectPath(site, object), nil)
	if err != nil {
		return FetchResult{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return FetchResult{}, fmt.Errorf("%w: %v", ErrEdgeTimeout, err)
		}
		return FetchResult{}, fmt.Errorf("%w: %v", ErrEdgeDown, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return FetchResult{}, fmt.Errorf("%w: %v", ErrEdgeDown, err)
	}
	if resp.StatusCode != http.StatusOK {
		sentinel := ClassError(resp.Header.Get(ErrorHeader))
		switch {
		case sentinel != nil:
		case resp.StatusCode == http.StatusNotFound:
			sentinel = ErrNotFound
		default:
			sentinel = ErrBadStatus
		}
		return FetchResult{}, fmt.Errorf("%w: status %d", sentinel, resp.StatusCode)
	}
	version := VersionFromETag(resp.Header.Get("Etag"))
	if !VerifyBody(body, site, object, version) {
		return FetchResult{}, fmt.Errorf("%w: %s (%d bytes)", ErrCorruptPayload, ObjectPath(site, object), len(body))
	}
	return FetchResult{
		Source:  resp.Header.Get("X-Cdn-Source"),
		Bytes:   int64(len(body)),
		Version: version,
		Latency: time.Since(start),
	}, nil
}
