package httpcdn

import (
	"bytes"
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
	var buf [48]byte // "/obj/" + two 20-byte ints + "/"
	return string(appendObjectPath(buf[:0], site, object))
}

func appendObjectPath(b []byte, site, object int) []byte {
	b = append(b, "/obj/"...)
	b = strconv.AppendInt(b, int64(site), 10)
	b = append(b, '/')
	return strconv.AppendInt(b, int64(object), 10)
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
func objectSize(sc *scenario.Scenario, site, object int) int64 {
	return min(max(sc.Work.Size(site, object), 1), MaxObjectBytes)
}

// sourceID indexes the four serve sources in obs.Sources order, so the
// per-source counters, histograms and header values are arrays.
type sourceID uint8

const (
	srcReplica sourceID = iota
	srcCache
	srcPeer
	srcOrigin
	numSources
)

// sourceHeader[id] is the preformatted X-Cdn-Source value of a source.
// The slices are shared by every response and never written again.
var sourceHeader = [numSources][]string{
	{SourceReplica}, {SourceCache}, {SourcePeer}, {SourceOrigin},
}

func (id sourceID) String() string { return sourceHeader[id][0] }

// objectType is the Content-Type value of every object body, shared like
// sourceHeader: a response that declares its type is not sniffed.
var objectType = []string{"application/octet-stream"}

// setObjectHeaders assigns the standard CDN headers of a 200. The keys
// are written in canonical form, which spares Header.Set's
// canonicalisation pass, and the two per-response values share one
// backing array, as the values of a header net/textproto reads do.
func setObjectHeaders(h http.Header, source sourceID, etag string, size int64) {
	vals := []string{strconv.FormatInt(size, 10), etag}
	h["X-Cdn-Source"] = sourceHeader[source]
	h["Content-Type"] = objectType
	h["Content-Length"] = vals[0:1:1]
	h["Etag"] = vals[1:2:2]
}

// writeObject serves the deterministic payload of the given version with
// the standard CDN response headers.
func writeObject(w http.ResponseWriter, sc *scenario.Scenario, site, object, version int, source sourceID) {
	size := objectSize(sc, site, object)
	setObjectHeaders(w.Header(), source, ETagFor(site, object, version), size)
	w.WriteHeader(http.StatusOK)
	WritePattern(w, site, object, version, size)
}

// patternPiece is the most bytes one Write of a payload carries. It is a
// multiple of the pattern's period, so every piece of a body starts at
// the same table offset, and it is MaxObjectBytes, so every object body
// is one Write.
const patternPiece = MaxObjectBytes

// patternTable[i] is byte(i). Byte i of an object's payload is
// seed + byte(i), a rotation of period 256, so the first patternPiece
// bytes of every payload are patternTable[seed : seed+n].
var patternTable [256 + patternPiece]byte

func init() {
	for i := range patternTable {
		patternTable[i] = byte(i)
	}
}

// patternSeed is the table offset at which an object version's payload
// starts.
func patternSeed(site, object, version int) int {
	return int(byte(site*31 + object*7 + version*13))
}

// WritePattern emits the deterministic byte pattern of an object version
// in pieces of at most patternPiece bytes.
func WritePattern(w io.Writer, site, object, version int, size int64) {
	seed := patternSeed(site, object, version)
	for size > 0 {
		n := min(size, patternPiece)
		if _, err := w.Write(patternTable[seed : seed+int(n)]); err != nil {
			return
		}
		size -= n
	}
}

// VerifyBody checks that body matches the deterministic pattern of the
// given object version.
func VerifyBody(body []byte, site, object, version int) bool {
	seed := patternSeed(site, object, version)
	for len(body) > 0 {
		n := min(len(body), patternPiece)
		if !bytes.Equal(body[:n], patternTable[seed:seed+n]) {
			return false
		}
		body = body[n:]
	}
	return true
}

// ETagFor is the strong validator origins attach and edges echo back:
// the object path and version, double-quoted.
func ETagFor(site, object, version int) string {
	var buf [72]byte // the path, '@', a 20-byte int and two quotes
	b := appendObjectPath(append(buf[:0], '"'), site, object)
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(version), 10)
	return string(append(b, '"'))
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

// Origin is the http.Handler of the primary server of every site: it
// answers GET /obj/{site}/{object} with the current version's payload.
// It ignores conditional headers, as a server may: every GET of an object
// in the catalog is a 200 with the body.
type Origin struct {
	sc       *scenario.Scenario
	versions *Versions
	spans    *obs.Tracer

	served, notFound *obs.Counter
}

// NewOrigin builds the handler of one server multiplexing every site by
// path. Origin spans go to spans when it is non-nil and the request
// carries a Traceparent.
func NewOrigin(sc *scenario.Scenario, versions *Versions, reg *obs.Registry, spans *obs.Tracer) *Origin {
	return &Origin{
		sc: sc, versions: versions, spans: spans,
		served: reg.Counter("cdn_origin_requests_total",
			"Requests served by the origin.", nil),
		notFound: reg.Counter("cdn_origin_notfound_total",
			"Requests for sites or objects outside the catalog (404s).", nil),
	}
}

func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	site, object, err := ParseObjectPath(o.sc, r.URL.Path)
	if err != nil {
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
	sp.Attr("status", "200")
	writeObject(w, o.sc, site, object, o.versions.Get(site, object), srcOrigin)
}

// maxClientBody bounds what Get reads of one response. It is far past
// MaxObjectBytes: a length declared beyond it is a broken edge, not a
// buffer to allocate.
const maxClientBody = 256 << 20

// readBody reads a response's body into one buffer: of exactly the
// declared Content-Length when there is one, else (a chunked sender)
// grown as the bytes arrive, and in neither case of more than max bytes.
func readBody(resp *http.Response, max int64) ([]byte, error) {
	n := resp.ContentLength
	if n > max {
		return nil, fmt.Errorf("body declares %d bytes, over the %d-byte cap", n, max)
	}
	if n >= 0 {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("body short of the %d bytes declared: %w", n, err)
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
	if err == nil && int64(len(body)) > max {
		err = fmt.Errorf("body runs past the %d-byte cap", max)
	}
	return body, err
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
	body, err := readBody(resp, maxClientBody)
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
