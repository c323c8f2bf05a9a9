package lrumodel

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func buildSmallTable() *Table {
	return BuildTable(200, 1.0, 0.01, 1.0, 10, 2000)
}

func TestBuildTablePanics(t *testing.T) {
	cases := []func(){
		func() { BuildTable(0, 1, 0.01, 1, 10, 100) },
		func() { BuildTable(10, -1, 0.01, 1, 10, 100) },
		func() { BuildTable(10, 1, 0, 1, 10, 100) },
		func() { BuildTable(10, 1, 2, 1, 10, 100) },
		func() { BuildTable(10, 1, 0.01, 1, 0, 100) },
		func() { BuildTable(10, 1, 0.01, 1, 200, 100) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTableMatchesExactOnGridPoints(t *testing.T) {
	tab := buildSmallTable()
	spec := SiteSpec{Objects: 200, Theta: 1.0}
	pred := newEq1(t, []SiteSpec{spec}, []float64{1}, 1, 1, nil)
	z := pred.zipfs[0]
	for _, p := range []float64{0.01, 0.25, 0.5, 1.0} {
		for _, K := range []float64{10, 100, 500, 2000} {
			want := hitRatioExact(p, z, K)
			got := tab.Lookup(p, K)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("grid point (%v, %v): %v vs exact %v", p, K, got, want)
			}
		}
	}
}

func TestTableInterpolatesOffGrid(t *testing.T) {
	tab := buildSmallTable()
	spec := SiteSpec{Objects: 200, Theta: 1.0}
	pred := newEq1(t, []SiteSpec{spec}, []float64{1}, 1, 1, nil)
	z := pred.zipfs[0]
	// Off-grid queries must be close to the exact value (the surface
	// is smooth; bilinear error on this grid is small).
	for _, q := range []struct{ p, K float64 }{
		{0.137, 73}, {0.333, 444}, {0.666, 1337}, {0.05, 15},
	} {
		want := hitRatioExact(q.p, z, q.K)
		got := tab.Lookup(q.p, q.K)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("off-grid (%v, %v): %v vs exact %v", q.p, q.K, got, want)
		}
	}
}

func TestTableLookupEdges(t *testing.T) {
	tab := buildSmallTable()
	if got := tab.Lookup(0, 100); got != 0 {
		t.Fatalf("p=0 gave %v", got)
	}
	if got := tab.Lookup(0.5, 0); got != 0 {
		t.Fatalf("K=0 gave %v", got)
	}
	// Clamping: beyond-grid queries return the boundary value.
	atMax := tab.Lookup(1.0, 2000)
	if got := tab.Lookup(5.0, 1e9); math.Abs(got-atMax) > 1e-12 {
		t.Fatalf("clamped lookup %v, want %v", got, atMax)
	}
	if got := tab.Lookup(0.5, math.Inf(1)); got != tab.Lookup(0.5, 2000) {
		t.Fatalf("K=+Inf lookup %v", got)
	}
}

func TestTableRoundTrip(t *testing.T) {
	tab := buildSmallTable()
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objects != tab.Objects || got.Theta != tab.Theta ||
		got.PStep != tab.PStep || got.KStep != tab.KStep {
		t.Fatalf("header mismatch: %+v vs %+v", got, tab)
	}
	for _, q := range []struct{ p, K float64 }{{0.1, 50}, {0.9, 1500}, {0.333, 777}} {
		if got.Lookup(q.p, q.K) != tab.Lookup(q.p, q.K) {
			t.Fatalf("lookup mismatch after round trip at (%v, %v)", q.p, q.K)
		}
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	if _, err := ReadTable(strings.NewReader("not a table")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTable(strings.NewReader("LRUT")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Valid header, truncated values.
	tab := buildSmallTable()
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTable(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated values accepted")
	}
	// Corrupt a value beyond [0,1].
	var buf2 bytes.Buffer
	if _, err := tab.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	full := buf2.Bytes()
	for i := len(full) - 8; i < len(full); i++ {
		full[i] = 0xff
	}
	if _, err := ReadTable(bytes.NewReader(full)); err == nil {
		t.Fatal("corrupt value accepted")
	}
}

func TestTableMonotoneSurface(t *testing.T) {
	tab := buildSmallTable()
	// h increases in both p and K.
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := tab.Lookup(p, 500)
		if v < prev-1e-12 {
			t.Fatalf("h not increasing in p at %v", p)
		}
		prev = v
	}
	prev = -1.0
	for K := 0.0; K <= 2000; K += 100 {
		v := tab.Lookup(0.4, K)
		if v < prev-1e-12 {
			t.Fatalf("h not increasing in K at %v", K)
		}
		prev = v
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tab := buildSmallTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(float64(i%100)/100, float64(i%2000))
	}
}
