package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// request is one generated client request: ask edge Edge for
// /obj/{Site}/{Object}. The program under test sees nothing else of the
// workload.
type request struct{ Edge, Site, Object int }

// target is what the generator knows about a deployment: where the
// edges listen and how to tell a right answer from a wrong one.
type target struct {
	EdgeURLs []string
	// Sites is the number of sites in the catalog; every site has the
	// same number of objects.
	Sites int
	// Size is the Content-Length a correct response carries.
	Size func(site, object int) int64
	// Verify checks a whole body against the version its ETag declares.
	Verify func(body []byte, site, object, version int) bool
	// Sources lists the valid X-Cdn-Source values; sample.Src indexes it.
	Sources []string
}

// sample is the client's record of one request.
type sample struct {
	LatNs  int64 // body done − due: what a user waited
	LateNs int64 // sent − due: the generator's own lag
	TTFBNs int64 // response headers − sent
	DoneNs int64 // answer checked − phase start: the request's place on the completion timeline
	Bytes  int32
	Src    int8 // index into target.Sources; −1 for a failed request
}

// phase is one timed run of requests.
type phase struct {
	Samples  []sample
	Wall     time.Duration
	Failed   int
	FirstErr string
}

// maxBody is the largest payload an edge serves (the program caps
// synthetic objects at 64 KiB); a longer body is a wrong answer.
const maxBody = 64 << 10

// fullVerifyEvery is how often a timed phase checks the whole body
// against the byte pattern; status, source, length and ETag are checked
// on every response.
const fullVerifyEvery = 32

// generator is the load generator: one process, a fixed number of
// workers and as many keep-alive connections per edge, loopback only.
type generator struct {
	tgt     target
	client  *http.Client
	workers int
	// trace, when non-nil, receives one root span per request and makes
	// every request carry a Traceparent header.
	trace *spanLog
}

func newGenerator(tgt target, workers int) *generator {
	return &generator{
		tgt:     tgt,
		workers: workers,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        workers * (len(tgt.EdgeURLs) + 1),
				MaxIdleConnsPerHost: workers,
				MaxConnsPerHost:     workers,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// poissonSchedule returns n due times (offsets from the phase start) of
// a Poisson process at rate requests per second, drawn from seed. The
// schedule is fixed before the first request is sent: nothing the
// program does can move it.
func poissonSchedule(n int, rate float64, seed uint64) []time.Duration {
	r := rand.New(rand.NewSource(int64(seed)))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// phaseOpts shape one timed run of a request list.
type phaseOpts struct {
	// Due, when non-nil, makes the loop open: request i is sent by the
	// first free worker at or after Due[i], and its latency is timed from
	// Due[i], so a stall is charged to every request queued behind it.
	// With Due == nil the loop is closed: a worker sends its next request
	// when its last one completes, and a request is due the moment it is
	// sent.
	Due []time.Duration
	// FullVerify checks every body against the byte pattern, not one in
	// fullVerifyEvery.
	FullVerify bool
	// First is the index of the list's first request in the round's
	// request sequence, of which the list is a stretch.
	First int
	// RotateEvery, when positive, sends the sequence's request k with
	// k/RotateEvery added to its edge (modulo the edge count) and to its site
	// (modulo the site count): the demand drift of the churn workload, a
	// function of the request's index alone. Moving clients between edges
	// alone leaves the best placement where it was, because the edges' site
	// mixes are alike; moving popularity between sites does not.
	RotateEvery int
	// AtIndex, when non-nil, is called with First+i by the worker about to
	// send the list's request i. It must not block.
	AtIndex func(k int)
}

// run sends reqs from g.workers workers and checks every response.
func (g *generator) run(ctx context.Context, reqs []request, opt phaseOpts) phase {
	ph := phase{Samples: make([]sample, len(reqs))}
	var next atomic.Int64
	var failed atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, maxBody+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				var dueAt time.Time
				if opt.Due != nil {
					dueAt = start.Add(opt.Due[i])
					sleepUntil(dueAt)
				}
				if opt.AtIndex != nil {
					opt.AtIndex(opt.First + i)
				}
				rot := 0
				if opt.RotateEvery > 0 {
					rot = (opt.First + i) / opt.RotateEvery
				}
				s, err := g.do(ctx, buf, reqs[i], rot, dueAt, opt.FullVerify || i%fullVerifyEvery == 0)
				s.DoneNs = int64(time.Since(start))
				ph.Samples[i] = s
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { ph.FirstErr = err.Error() })
				}
			}
		}()
	}
	wg.Wait()
	ph.Wall = time.Since(start)
	ph.Failed = int(failed.Load())
	return ph
}

// do sends one request, its edge and site rotated by rot, and checks the
// answer. A zero dueAt means "due now" (closed loop).
func (g *generator) do(ctx context.Context, buf []byte, rq request, rot int, dueAt time.Time, fullVerify bool) (sample, error) {
	s := sample{Src: -1}
	edge := (rq.Edge + rot) % len(g.tgt.EdgeURLs)
	rq.Site = (rq.Site + rot) % g.tgt.Sites
	url := g.tgt.EdgeURLs[edge] + "/obj/" + strconv.Itoa(rq.Site) + "/" + strconv.Itoa(rq.Object)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return s, err
	}
	var traceID, spanID string
	if g.trace != nil {
		traceID, spanID = g.trace.newIDs()
		hreq.Header.Set("Traceparent", "00-"+traceID+"-"+spanID+"-01")
	}
	sent := time.Now()
	if dueAt.IsZero() {
		dueAt = sent
	}
	s.LateNs = int64(sent.Sub(dueAt))
	resp, err := g.client.Do(hreq)
	if err != nil {
		s.LatNs = int64(time.Since(dueAt))
		return s, err
	}
	s.TTFBNs = int64(time.Since(sent))
	n, rerr := io.ReadFull(resp.Body, buf)
	resp.Body.Close()
	done := time.Now()
	s.LatNs = int64(done.Sub(dueAt))
	s.Bytes = int32(n)
	if g.trace != nil {
		g.trace.add(span{
			Trace: traceID, Span: spanID, Kind: spanClient,
			Edge: edge, Site: rq.Site, Object: rq.Object,
			StartUs: sent.UnixMicro(), DurUs: int64(done.Sub(sent) / time.Microsecond),
			Attrs: map[string]string{
				"due_us":        strconv.FormatInt(dueAt.UnixMicro(), 10),
				"first_byte_us": strconv.FormatInt(sent.UnixMicro()+s.TTFBNs/1000, 10),
				"source":        resp.Header.Get("X-Cdn-Source"),
			},
		})
	}
	if rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
		// nil means the body filled maxBody+1 bytes: too long.
		return s, fmt.Errorf("GET %s: body read: %v", url, rerr)
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	src := int8(-1)
	for k, name := range g.tgt.Sources {
		if resp.Header.Get("X-Cdn-Source") == name {
			src = int8(k)
		}
	}
	if src < 0 {
		return s, fmt.Errorf("GET %s: X-Cdn-Source %q", url, resp.Header.Get("X-Cdn-Source"))
	}
	if want := g.tgt.Size(rq.Site, rq.Object); int64(n) != want || resp.ContentLength != want {
		return s, fmt.Errorf("GET %s: %d bytes (Content-Length %d), want %d", url, n, resp.ContentLength, want)
	}
	version, ok := parseETag(resp.Header.Get("Etag"), rq.Site, rq.Object)
	if !ok {
		return s, fmt.Errorf("GET %s: ETag %q", url, resp.Header.Get("Etag"))
	}
	if fullVerify && !g.tgt.Verify(buf[:n], rq.Site, rq.Object, version) {
		return s, fmt.Errorf("GET %s: body does not match version %d", url, version)
	}
	s.Src = src
	return s, nil
}

// parseETag checks that etag is the strong validator "/obj/{site}/{object}@{version}"
// of the requested object and returns the version.
func parseETag(etag string, site, object int) (version int, ok bool) {
	prefix := `"/obj/` + strconv.Itoa(site) + "/" + strconv.Itoa(object) + "@"
	if !strings.HasPrefix(etag, prefix) || !strings.HasSuffix(etag, `"`) {
		return 0, false
	}
	v, err := strconv.Atoi(etag[len(prefix) : len(etag)-1])
	return v, err == nil && v >= 0
}

// pieceSeconds cuts the phase's completion timeline into pieces of n
// requests: piece k runs from the completion of request kn (the phase
// start for k = 0) to the completion of request (k+1)n, in completion
// order. The pieces add up to the phase's wall time, and piece k of one
// list is the same work in every repetition of the list.
func (ph phase) pieceSeconds(n int) []float64 {
	done := make([]int64, len(ph.Samples))
	for i, s := range ph.Samples {
		done[i] = s.DoneNs
	}
	slices.Sort(done)
	pieces := make([]float64, 0, len(done)/n)
	var last int64
	for k := n; k <= len(done); k += n {
		pieces = append(pieces, float64(done[k-1]-last)/1e9)
		last = done[k-1]
	}
	return pieces
}

// getBody GETs url and returns status and body length; the floor probes
// (edge ping, origin direct) use it.
func getBody(client *http.Client, url string) (status int, n int64, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, err
	}
	n, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, n, err
}
