package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Tracer writes Spans as JSONL. Safe for concurrent use; the first
// write error is sticky and subsequent spans are dropped —
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

// EmitSpan appends one span to the JSONL stream, or counts it as
// dropped when the stream is already broken or this write breaks it.
func (t *Tracer) EmitSpan(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.enc.Encode(s)
		if t.err == nil {
			return
		}
	}
	t.dropped.Add(1)
	if t.dropCtr != nil {
		t.dropCtr.Inc()
	}
}

// Flush pushes buffered spans to the underlying writer and returns
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
