package workload

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// streamHash is the FNV-1a hash of the first n requests of next, every
// field in declaration order as 8 little-endian bytes.
func streamHash(n int, next func() Request) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for k := 0; k < n; k++ {
		r := next()
		put(uint64(r.Server))
		put(uint64(r.Site))
		put(uint64(r.Object))
		put(flag(r.Cacheable))
		put(uint64(r.Generation))
		put(flag(r.Perished))
	}
	return h.Sum64()
}

// TestGoldenStreams pins the request sequences themselves. The constants
// were recorded at the commit before the guided inverse-CDF search
// replaced sort.SearchFloat64s in Zipf.Sample, Stream.Next and
// DynamicStream.Next; the figures would catch a changed sequence only
// indirectly, this catches it at the source.
func TestGoldenStreams(t *testing.T) {
	const (
		seed  = 20051
		draws = 100000
	)
	locality := DefaultConfig()
	locality.LocalityProb = 0.3
	lambda := DefaultConfig()
	lambda.Lambda = 0.1
	churn := DynamicConfig{PublishRate: 5e-5, PerishRate: 5e-5}

	static := func(cfg Config) func() Request {
		w := MustGenerate(cfg, xrand.New(seed))
		return NewStream(w, xrand.New(seed+1)).Next
	}
	dynamic := func(cfg Config, dc DynamicConfig) func() Request {
		w := MustGenerate(cfg, xrand.New(seed))
		return MustNewDynamicStream(w, dc, xrand.New(seed+1)).Next
	}
	cases := []struct {
		name string
		next func() Request
		want uint64
	}{
		{"static/default", static(DefaultConfig()), 0x3dfc91900f8c51c3},
		{"static/locality", static(locality), 0xd48f4be6f05c4359},
		{"static/lambda", static(lambda), 0x964710c0e7772943},
		{"dynamic/churn-5e-5", dynamic(DefaultConfig(), churn), 0xa09b19fd08d56c1e},
		{"dynamic/flash-chain", dynamic(smallConfig(), churningConfig()), 0x34cfe02e840cbad1},
	}
	for _, c := range cases {
		if got := streamHash(draws, c.next); got != c.want {
			t.Errorf("%s: stream hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestStreamZeroDemandCells zeroes whole rows and columns of the demand
// matrix — runs of equal CDF values, at index 0 and at the end too — and
// checks that the guided draw is the binary search's draw and never
// lands on a cell nobody asks for.
func TestStreamZeroDemandCells(t *testing.T) {
	w := MustGenerate(smallConfig(), xrand.New(5))
	dead := func(i, j int) bool { return i == 0 || i == 3 || i == 7 || j == 0 || j == 4 || j == 7 }
	sum := 0.0
	for i := range w.Demand {
		for j := range w.Demand[i] {
			if dead(i, j) {
				w.Demand[i][j] = 0
			}
			sum += w.Demand[i][j]
		}
	}
	for i := range w.Demand {
		for j := range w.Demand[i] {
			w.Demand[i][j] /= sum
		}
	}
	s := NewStream(w, xrand.New(6))
	oracle := xrand.New(6)
	for k := 0; k < 50000; k++ {
		want := sort.SearchFloat64s(s.cdf, oracle.Float64())
		req := s.Next()
		if got := req.Server*s.cols + req.Site; got != want {
			t.Fatalf("draw %d: cell %d, binary search %d", k, got, want)
		}
		if dead(req.Server, req.Site) {
			t.Fatalf("draw %d: request for zero-demand cell (%d, %d)", k, req.Server, req.Site)
		}
		oracle.Float64() // the object draw
		oracle.Float64() // the cacheable draw
	}
}
