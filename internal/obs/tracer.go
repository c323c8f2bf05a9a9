package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Event is one per-request trace record of the simulator (cdnsim
// -trace), so its behaviour can be diffed against the model's
// predictions. The HTTP cluster does not emit Events: it traces Spans.
// Serialized as one JSON object per line (JSONL).
type Event struct {
	// Req is the request id: the measured-phase sequence number.
	Req int64 `json:"req"`
	// Edge is the first-hop CDN server that handled the request.
	Edge int `json:"edge"`
	// Site and Object identify the requested web object.
	Site   int `json:"site"`
	Object int `json:"object"`
	// Source is where the request was served from: one of
	// SourceReplica, SourceCache, SourcePeer, SourceOrigin.
	Source string `json:"source"`
	// Hops is the redirection cost in topology hops (0 when served at
	// the first-hop server) — the paper's objective D unit.
	Hops float64 `json:"hops"`
	// LatencyMs is the modelled response time in milliseconds.
	LatencyMs float64 `json:"latency_ms"`
}

// Tracer writes Events (and Spans) as JSONL. Safe for concurrent use;
// the first write error is sticky and subsequent emits are dropped —
// visibly: Dropped counts them, and CountDrops mirrors the count into a
// registry counter so a dying disk shows up in /metrics instead of
// silently truncating the trace. Always Flush (or Close) a tracer
// before reading its output.
type Tracer struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	err     error
	seq     atomic.Int64
	dropped atomic.Int64
	dropCtr *Counter // optional registry mirror, set by CountDrops
}

// NewTracer returns a tracer writing JSONL to w.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw)}
}

// NextID returns a fresh request id (1, 2, 3, ...).
func (t *Tracer) NextID() int64 { return t.seq.Add(1) }

// CountDrops registers a counter (typically cdn_trace_dropped_total in
// the deployment's registry) that is incremented for every record
// discarded after a write error.
func (t *Tracer) CountDrops(c *Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropCtr = c
	if n := t.dropped.Load(); n > 0 && c != nil {
		c.Add(n) // drops recorded before the counter was attached
	}
}

// Dropped reports how many records were discarded because of a write
// error (including the record whose write failed).
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Emit appends one event.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(e)
}

// emitLocked encodes one record under the held mutex, counting it as
// dropped when the stream is already broken or this write breaks it.
func (t *Tracer) emitLocked(v any) {
	if t.err == nil {
		t.err = t.enc.Encode(v)
		if t.err == nil {
			return
		}
	}
	t.dropped.Add(1)
	if t.dropCtr != nil {
		t.dropCtr.Inc()
	}
}

// Flush pushes buffered events to the underlying writer and returns
// the sticky error, if any.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Err returns the sticky write error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ReadEvents parses a JSONL trace back into events — the inverse of
// Emit, for tests and offline analysis.
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}
