package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func smallScenario() *scenario.Scenario {
	w := workload.DefaultConfig()
	w.Servers = 6
	w.LowSites, w.MediumSites, w.HighSites = 2, 2, 2
	w.ObjectsPerSite = 80
	w.Lambda = 0.1
	return scenario.MustBuild(scenario.Config{
		Topology: topology.Config{
			TransitDomains:        1,
			TransitNodesPerDomain: 2,
			StubsPerTransitNode:   2,
			StubNodesPerStub:      4,
			ExtraEdgeProb:         0.3,
		},
		Workload:     w,
		CapacityFrac: 0.15,
		Seed:         1,
	})
}

func TestRoundTrip(t *testing.T) {
	sc := smallScenario()
	stream := sc.Stream(xrand.New(2))
	h := Header{Servers: 6, Sites: 6, ObjectsPerSite: 80}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	var want []workload.Request
	for i := 0; i < 5000; i++ {
		req := stream.Next()
		want = append(want, req)
		if err := w.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 5000 {
		t.Fatalf("count %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != h {
		t.Fatalf("header %+v, want %+v", r.Header(), h)
	}
	for i, wantReq := range want {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wantReq {
			t.Fatalf("record %d: %+v != %+v", i, got, wantReq)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestWriterRejectsOutOfBounds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Servers: 2, Sites: 2, ObjectsPerSite: 10})
	if err != nil {
		t.Fatal(err)
	}
	bad := []workload.Request{
		{Server: 2, Site: 0, Object: 1},
		{Server: 0, Site: 5, Object: 1},
		{Server: 0, Site: 0, Object: 0},
		{Server: 0, Site: 0, Object: 11},
		{Server: -1, Site: 0, Object: 1},
	}
	for i, req := range bad {
		buf.Reset()
		w2, _ := NewWriter(&buf, Header{Servers: 2, Sites: 2, ObjectsPerSite: 10})
		if err := w2.Write(req); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	_ = w
}

func TestNewWriterRejectsBadHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Servers: 0, Sites: 1}); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := NewWriter(&buf, Header{Servers: 1, Sites: 70000}); err == nil {
		t.Fatal("oversized sites accepted")
	}
	if _, err := NewWriter(&buf, Header{Servers: 1, Sites: 1}); err == nil {
		t.Fatal("zero objects per site accepted")
	}
}

// rawTrace is a version-1 trace of the given header fields followed by
// records of (server, site, object, flags).
func rawTrace(servers, sites uint16, objects uint32, records ...[4]uint32) []byte {
	b := []byte(Magic)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, servers)
	b = binary.LittleEndian.AppendUint16(b, sites)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, objects)
	for _, r := range records {
		b = binary.LittleEndian.AppendUint16(b, uint16(r[0]))
		b = binary.LittleEndian.AppendUint16(b, uint16(r[1]))
		b = binary.LittleEndian.AppendUint32(b, r[2])
		b = append(b, byte(r[3]))
	}
	return b
}

// TestReaderRejectsObjectOutOfRange: a record's object rank must lie in
// [1, ObjectsPerSite] — replaying rank 0 or a rank past the catalog
// would index a site's objects out of range — and a header must have at
// least one object per site.
func TestReaderRejectsObjectOutOfRange(t *testing.T) {
	for _, obj := range []uint32{0, 101, math.MaxUint32} {
		r, err := NewReader(bytes.NewReader(rawTrace(2, 2, 100, [4]uint32{0, 0, obj, 1})))
		if err != nil {
			t.Fatal(err)
		}
		if req, err := r.Read(); err == nil {
			t.Errorf("object %d of 100 accepted: %+v", obj, req)
		}
	}
	for _, obj := range []uint32{1, 100} {
		r, err := NewReader(bytes.NewReader(rawTrace(2, 2, 100, [4]uint32{1, 1, obj, 0})))
		if err != nil {
			t.Fatal(err)
		}
		if req, err := r.Read(); err != nil || req.Object != int(obj) {
			t.Errorf("object %d of 100: %+v, %v", obj, req, err)
		}
	}
	if _, err := NewReader(bytes.NewReader(rawTrace(2, 2, 0))); err == nil {
		t.Error("header with zero objects per site accepted")
	}
}

// FuzzTraceReader feeds arbitrary bytes to the reader: it must never
// panic, and every request it returns must lie within its header.
func FuzzTraceReader(f *testing.F) {
	f.Add(rawTrace(2, 2, 100, [4]uint32{0, 0, 1, 1}, [4]uint32{1, 1, 100, 0}))
	f.Add(rawTrace(2, 2, 100, [4]uint32{0, 0, 0, 1}))
	f.Add(rawTrace(2, 2, 100, [4]uint32{0, 0, 101, 1}))
	f.Add(rawTrace(1, 1, 0))
	f.Add([]byte("CDNT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := r.Header()
		for {
			req, err := r.Read()
			if err != nil {
				return
			}
			if req.Server < 0 || req.Server >= h.Servers || req.Site < 0 || req.Site >= h.Sites ||
				req.Object < 1 || req.Object > h.ObjectsPerSite {
				t.Fatalf("request %+v outside header %+v", req, h)
			}
		}
	})
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewReader(strings.NewReader("CD")); err == nil {
		t.Fatal("short header accepted")
	}
	// Right magic, wrong version.
	raw := []byte("CDNT\xff\xff\x02\x00\x02\x00\x00\x00\x0a\x00\x00\x00")
	if _, err := NewReader(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Servers: 2, Sites: 2, ObjectsPerSite: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(workload.Request{Server: 0, Site: 0, Object: 1, Cacheable: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the last record in half.
	data := buf.Bytes()[:buf.Len()-4]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// TestReplayMatchesLiveRun is the point of the package: recording a
// trace and replaying it through sim.RunSource must reproduce the live
// simulation bit for bit.
func TestReplayMatchesLiveRun(t *testing.T) {
	sc := smallScenario()
	p := coreNewPlacement(sc)
	cfg := sim.DefaultConfig()
	cfg.Requests = 20000
	cfg.Warmup = 10000

	// Live run.
	live, err := sim.Run(context.Background(), sc, p, cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}

	// Record the identical stream, then replay.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{
		Servers:        sc.Sys.N(),
		Sites:          sc.Sys.M(),
		ObjectsPerSite: len(sc.Work.Sites[0].Objects),
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := sc.Stream(xrand.New(7))
	for i := 0; i < cfg.Warmup+cfg.Requests; i++ {
		if err := w.Write(stream.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sim.RunSource(context.Background(), sc, p, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if live.MeanRTMs != replay.MeanRTMs || live.CacheHits != replay.CacheHits ||
		live.MeanHops != replay.MeanHops || live.Bypass != replay.Bypass {
		t.Fatalf("replay diverged: live %+v vs replay %+v", liveSummary(live), liveSummary(replay))
	}
}

func TestRunSourceExhausted(t *testing.T) {
	sc := smallScenario()
	p := coreNewPlacement(sc)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Servers: sc.Sys.N(), Sites: sc.Sys.M(), ObjectsPerSite: 80})
	if err != nil {
		t.Fatal(err)
	}
	stream := sc.Stream(xrand.New(9))
	for i := 0; i < 100; i++ {
		if err := w.Write(stream.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Requests = 200
	cfg.Warmup = 0
	if _, err := sim.RunSource(context.Background(), sc, p, cfg, r); err == nil {
		t.Fatal("exhausted source accepted")
	}
}

func liveSummary(m *sim.Metrics) map[string]interface{} {
	return map[string]interface{}{
		"rt": m.MeanRTMs, "hits": m.CacheHits, "hops": m.MeanHops, "bypass": m.Bypass,
	}
}
