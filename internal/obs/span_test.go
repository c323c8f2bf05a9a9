package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestSpanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := Span{
		Trace: NewTraceID(), Span: NewSpanID(), Kind: SpanServe,
		Edge: 2, Site: 1, Object: 7, StartUs: 1000, DurUs: 2500,
		Attrs: map[string]string{"source": "cache"},
	}
	child := Span{
		Trace: root.Trace, Span: NewSpanID(), Parent: root.Span,
		Kind: SpanUpstream, Edge: 2, Site: 1, Object: 7,
		StartUs: 1200, DurUs: 800,
	}
	tr.EmitSpan(root)
	tr.EmitSpan(child)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Kind != SpanServe || spans[1].Parent != root.Span {
		t.Fatalf("spans did not round-trip: %+v", spans)
	}
	if spans[0].Attrs["source"] != "cache" {
		t.Fatalf("attrs did not round-trip: %+v", spans[0].Attrs)
	}
	if spans[1].EndUs() != 2000 {
		t.Fatalf("EndUs = %d, want 2000", spans[1].EndUs())
	}
	for _, s := range spans {
		if err := ValidateSpan(s); err != nil {
			t.Fatalf("valid span rejected: %v", err)
		}
	}
}

// TestReadTraceRejectsNonSpan: the span is the only record of the
// trace schema, so a line without a "span" field — such as the
// per-request event line of older simulator traces — is an error, not
// a record filed elsewhere. A span with an empty ID still parses; the
// schema check rejects it.
func TestReadTraceRejectsNonSpan(t *testing.T) {
	serve := `{"trace":"` + DeterministicTraceID(1) + `","span":"` + DeterministicSpanID(2) +
		`","kind":"serve","edge":0,"site":0,"object":1,"start_us":0,"dur_us":20000}`
	event := `{"req":1,"edge":0,"site":0,"object":1,"source":"replica","hops":0,"latency_ms":20}`
	spans, err := ReadTrace(strings.NewReader(serve + "\n" + event + "\n" + serve + "\n"))
	if err == nil || !strings.Contains(err.Error(), "record 2 is not a span") {
		t.Fatalf("ReadTrace on an event line: err %v, want record 2 rejected", err)
	}
	if len(spans) != 1 {
		t.Fatalf("ReadTrace returned %d spans before the bad record, want 1", len(spans))
	}
	spans, err = ReadTrace(strings.NewReader(`{"span":"","kind":"serve"}`))
	if err != nil || len(spans) != 1 || ValidateSpan(spans[0]) == nil {
		t.Fatalf("empty span ID: %d spans, err %v; want one span that fails ValidateSpan", len(spans), err)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace, span := NewTraceID(), NewSpanID()
	if len(trace) != 32 || len(span) != 16 {
		t.Fatalf("ID lengths: trace %d, span %d", len(trace), len(span))
	}
	hdr := Traceparent(trace, span)
	gotTrace, gotSpan, ok := ParseTraceparent(hdr)
	if !ok || gotTrace != trace || gotSpan != span {
		t.Fatalf("ParseTraceparent(%q) = %q, %q, %v", hdr, gotTrace, gotSpan, ok)
	}
	if _, _, ok := ParseTraceparent("00-" + trace + "-" + span + "-00"); !ok {
		t.Fatal("ParseTraceparent rejected an unsampled (flags 00) header")
	}
	zeroTrace, zeroSpan := strings.Repeat("0", 32), strings.Repeat("0", 16)
	for _, bad := range []string{
		"", "00-zz-yy-01", hdr[:54], hdr + "0",
		"00-" + strings.ToUpper(trace) + "-" + span + "-01",
		// Flags must be two lowercase hex digits.
		"00-" + trace + "-" + span + "-zz",
		"00-" + trace + "-" + span + "-0G",
		"00-" + trace + "-" + span + "-0A",
		// All-zero IDs are invalid (W3C Trace Context).
		"00-" + zeroTrace + "-" + zeroSpan + "-01",
		"00-" + zeroTrace + "-" + span + "-01",
		"00-" + trace + "-" + zeroSpan + "-01",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent accepted %q", bad)
		}
	}
}

// FuzzParseTraceparent: every accepted header carries well-formed,
// non-zero IDs that round-trip through Traceparent (what an httpcdn
// span's Header renders), and every header rendered from non-zero IDs
// parses back to them.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(Traceparent(DeterministicTraceID(1), DeterministicSpanID(1)), uint64(1), uint64(2), uint64(3))
	f.Add("00-"+strings.Repeat("0", 32)+"-"+strings.Repeat("0", 16)+"-01", uint64(0), uint64(0), uint64(0))
	f.Add("00-"+strings.Repeat("0", 31)+"1-"+strings.Repeat("0", 16)+"-01", uint64(0), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, v string, hi, lo, sp uint64) {
		if trace, span, ok := ParseTraceparent(v); ok {
			if len(trace) != 32 || len(span) != 16 || !isHex(trace) || !isHex(span) {
				t.Fatalf("ParseTraceparent(%q) accepted malformed IDs %q, %q", v, trace, span)
			}
			if allZero(trace) || allZero(span) {
				t.Fatalf("ParseTraceparent(%q) accepted an all-zero ID", v)
			}
			if t2, s2, ok := ParseTraceparent(Traceparent(trace, span)); !ok || t2 != trace || s2 != span {
				t.Fatalf("IDs from %q do not round-trip: %q, %q, %v", v, t2, s2, ok)
			}
		}
		trace, span := hex64(hi)+hex64(lo), hex64(sp)
		gotTrace, gotSpan, ok := ParseTraceparent(Traceparent(trace, span))
		if want := (hi != 0 || lo != 0) && sp != 0; ok != want {
			t.Fatalf("ParseTraceparent(Traceparent(%q, %q)) ok = %v, want %v", trace, span, ok, want)
		}
		if ok && (gotTrace != trace || gotSpan != span) {
			t.Fatalf("round trip: got %q, %q, want %q, %q", gotTrace, gotSpan, trace, span)
		}
	})
}

func TestDeterministicIDs(t *testing.T) {
	if DeterministicTraceID(42) != DeterministicTraceID(42) {
		t.Fatal("DeterministicTraceID is not deterministic")
	}
	if DeterministicTraceID(1) == DeterministicTraceID(2) {
		t.Fatal("DeterministicTraceID collides on adjacent seeds")
	}
	if id := DeterministicSpanID(7); len(id) != 16 || !isHex(id) {
		t.Fatalf("DeterministicSpanID(7) = %q", id)
	}
	if NewTraceID() == NewTraceID() {
		t.Fatal("NewTraceID returned the same ID twice")
	}
}

func TestValidateSpanRejects(t *testing.T) {
	good := Span{Trace: NewTraceID(), Span: NewSpanID(), Kind: SpanServe}
	cases := map[string]Span{
		"short trace":  {Trace: "abc", Span: good.Span, Kind: SpanServe},
		"short span":   {Trace: good.Trace, Span: "12", Kind: SpanServe},
		"bad parent":   {Trace: good.Trace, Span: good.Span, Parent: "xyz", Kind: SpanServe},
		"no kind":      {Trace: good.Trace, Span: good.Span},
		"unknown kind": {Trace: good.Trace, Span: good.Span, Kind: "coffee"},
		"negative dur": {Trace: good.Trace, Span: good.Span, Kind: SpanServe, DurUs: -1},
	}
	if err := ValidateSpan(good); err != nil {
		t.Fatalf("good span rejected: %v", err)
	}
	for name, s := range cases {
		if ValidateSpan(s) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateSpanAcceptsClient: a load generator's client span, the
// root of the serve span beneath it, passes the check — though it is not
// one of SpanKinds, which the per-kind tables iterate.
func TestValidateSpanAcceptsClient(t *testing.T) {
	client := Span{Trace: NewTraceID(), Span: NewSpanID(), Kind: SpanClient}
	if err := ValidateSpan(client); err != nil {
		t.Fatalf("client span rejected: %v", err)
	}
	for _, k := range SpanKinds {
		if k == SpanClient {
			t.Fatal("SpanClient is listed in SpanKinds")
		}
	}
}

// failAfter fails every write after the first n bytes.
type failAfter struct {
	n       int
	written int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestTracerCountsDrops(t *testing.T) {
	// A tiny buffered writer would hide the failure until Flush; force
	// flushing through by writing more than the 64 KiB buffer.
	tr := NewTracer(&failAfter{n: 1 << 16})
	reg := NewRegistry()
	ctr := reg.Counter("cdn_trace_dropped_total",
		"Trace records dropped after a write error.", nil)
	tr.CountDrops(ctr)

	big := Span{Kind: SpanServe, Attrs: map[string]string{"pad": strings.Repeat("x", 4096)}}
	for i := 0; i < 64; i++ {
		tr.EmitSpan(big)
	}
	tr.EmitSpan(Span{Trace: NewTraceID(), Span: NewSpanID(), Kind: SpanServe})
	if tr.Err() == nil {
		t.Fatal("write error did not stick")
	}
	if tr.Dropped() == 0 {
		t.Fatal("no drops counted after a write error")
	}
	if ctr.Value() != tr.Dropped() {
		t.Fatalf("registry counter %d != Dropped %d", ctr.Value(), tr.Dropped())
	}
}

func TestTracerCountDropsAttachLate(t *testing.T) {
	tr := NewTracer(&failAfter{n: 0})
	for i := 0; i < 32; i++ {
		tr.EmitSpan(Span{Kind: SpanServe, Attrs: map[string]string{"pad": strings.Repeat("y", 4096)}})
	}
	if tr.Dropped() == 0 {
		t.Fatal("no drops before attach")
	}
	var ctr Counter
	tr.CountDrops(&ctr)
	if ctr.Value() != tr.Dropped() {
		t.Fatalf("late-attached counter %d != Dropped %d", ctr.Value(), tr.Dropped())
	}
}
