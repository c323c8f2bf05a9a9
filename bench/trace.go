package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// spanClient is the kind of the benchmark's own root span: one client
// request from send to last body byte. The program's spans (serve,
// health, failover, upstream, retry, origin) stitch beneath it through
// the Traceparent header.
const spanClient = "client"

// programSpanKinds are the span kinds the program may emit, in the order
// the trace.*_self_us metrics are named.
var programSpanKinds = []string{"serve", "health", "failover", "upstream", "retry", "origin"}

// span is one timed operation, in the program's own JSONL span schema so
// the written trace file reads with cmd/cdntrace.
type span struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Kind    string            `json:"kind"`
	Edge    int               `json:"edge"`
	Site    int               `json:"site"`
	Object  int               `json:"object"`
	StartUs int64             `json:"start_us"`
	DurUs   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps the benchmark's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	seq   atomic.Uint64
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the spans logged since the last call and forgets them.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// newIDs returns a fresh W3C-shaped (32-hex trace, 16-hex span) pair.
func (l *spanLog) newIDs() (trace, spanID string) {
	v := l.seq.Add(1)
	return fmt.Sprintf("%016x%016x", mix64(v), mix64(^v)), fmt.Sprintf("%016x", mix64(v*0x9e3779b97f4a7c15))
}

// time runs fn inside a benchmark-side span of the given kind: the
// offline workloads' spans around each public call.
func (l *spanLog) time(kind string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if l != nil {
		trace, id := l.newIDs()
		l.add(span{Trace: trace, Span: id, Kind: kind, StartUs: start.UnixMicro(), DurUs: int64(d / time.Microsecond)})
	}
	return d
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// encodeSpans renders spans as JSONL.
func encodeSpans(spans []span) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// traceNode is one span of a reconstructed request tree.
type traceNode struct {
	Kind     string
	StartUs  int64
	DurUs    int64
	Children []*traceNode
}

// selfUs is the node's duration minus the part of its interval its
// children cover (children sorted by start; overlaps counted once).
func (n *traceNode) selfUs() int64 {
	end := n.StartUs + n.DurUs
	covered, cursor := int64(0), n.StartUs
	for _, ch := range n.Children {
		lo, hi := ch.StartUs, ch.StartUs+ch.DurUs
		if lo < cursor {
			lo = cursor
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return n.DurUs - covered
}

// traceBudget is the reduction of a traced phase: mean self time per
// request by span kind along each request's critical path, and the share
// of the client's wall time that named program spans cover.
type traceBudget struct {
	Requests int
	SelfUs   map[string]float64
	Coverage float64
}

// reduceTraces walks each client-rooted tree down its critical path
// (the longest child at every level) and charges every node's self time
// to its kind. SelfUs values are means over all requests, so they add up
// to the mean client latency; Coverage is the median over requests of
// 1 − client self ÷ client duration.
func reduceTraces(roots []*traceNode) traceBudget {
	b := traceBudget{SelfUs: map[string]float64{}}
	var coverage []float64
	for _, root := range roots {
		if root.Kind != spanClient || root.DurUs <= 0 {
			continue
		}
		b.Requests++
		for n := root; n != nil; {
			b.SelfUs[n.Kind] += float64(n.selfUs())
			var next *traceNode
			for _, ch := range n.Children {
				if next == nil || ch.DurUs > next.DurUs {
					next = ch
				}
			}
			n = next
		}
		coverage = append(coverage, 1-float64(root.selfUs())/float64(root.DurUs))
	}
	if b.Requests > 0 {
		for k := range b.SelfUs {
			b.SelfUs[k] /= float64(b.Requests)
		}
	}
	b.Coverage = median(coverage)
	return b
}
