package lrumodel

import (
	"strings"
	"testing"

	"repro/internal/xrand"
)

func TestParseModelKind(t *testing.T) {
	if k, err := ParseModelKind(""); err != nil || k != ModelEq1 {
		t.Fatalf("ParseModelKind(\"\") = %v, %v; want eq1 default", k, err)
	}
	for _, kind := range ModelKinds() {
		k, err := ParseModelKind(string(kind))
		if err != nil || k != kind {
			t.Fatalf("ParseModelKind(%q) = %v, %v", kind, k, err)
		}
	}
	// The Laoutaris closed form is not a kind.
	for _, bad := range []string{"lfu", "closedform"} {
		_, err := ParseModelKind(bad)
		if err == nil {
			t.Fatalf("ParseModelKind(%q) succeeded", bad)
		}
		// CLIs surface this message verbatim from flag validation: it
		// must name the offender and list every valid kind.
		for _, want := range []string{`"` + bad + `"`, "valid: eq1, che, random)"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	specs, w := singleSite(100, 1.0, 0)
	good := ModelConfig{Specs: specs, Weights: w, AvgObjectBytes: 1, MaxCacheBytes: 100}

	bad := good
	bad.Kind = "bogus"
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted an unknown kind")
	}

	// Invalid site specs are an error, not a panic.
	bad = good
	bad.Specs = nil
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted empty specs")
	}
	bad = good
	bad.AvgObjectBytes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted ō = 0")
	}
}

func TestModelKindRoundTrip(t *testing.T) {
	specs, w := singleSite(100, 1.0, 0)
	for _, kind := range ModelKinds() {
		m, err := New(ModelConfig{Kind: kind, Specs: specs, Weights: w,
			AvgObjectBytes: 1, MaxCacheBytes: 100})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.Kind() != kind {
			t.Fatalf("Kind() = %v, want %v", m.Kind(), kind)
		}
	}
}

// TestSharedTableIsolatesKinds: models of different kinds can attach
// the same SharedTable without cross-contaminating each other, because
// entries are keyed by kind. Each shared model must agree exactly with
// a private-table model of the same kind.
func TestSharedTableIsolatesKinds(t *testing.T) {
	specs, w := singleSite(2000, 1.0, 0)
	table := NewSharedTable()
	for _, c := range []int64{100, 400, 1000} {
		for _, kind := range ModelKinds() {
			shared, err := New(ModelConfig{Kind: kind, Specs: specs, Weights: w,
				AvgObjectBytes: 1, MaxCacheBytes: 2000, Shared: table})
			if err != nil {
				t.Fatal(err)
			}
			private, err := New(ModelConfig{Kind: kind, Specs: specs, Weights: w,
				AvgObjectBytes: 1, MaxCacheBytes: 2000})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := shared.SiteHitRatio(0, c), private.SiteHitRatio(0, c); a != b {
				t.Fatalf("%s cache %d: shared %v != private %v", kind, c, a, b)
			}
		}
	}
	if st := table.Stats(); st.Entries == 0 {
		t.Fatal("shared table recorded no entries")
	}
}

// TestModelsOrderedBySkewSensitivity spot-checks the cross-model
// ordering at one operating point: every kind must produce a plausible
// hit ratio (0 < h < 1) for a mid-size cache, and the RANDOM/FIFO law
// must not beat Che's LRU.
func TestModelsOrderedBySkewSensitivity(t *testing.T) {
	specs, w := singleSite(1000, 1.0, 0)
	h := map[ModelKind]float64{}
	for _, kind := range ModelKinds() {
		m, err := New(ModelConfig{Kind: kind, Specs: specs, Weights: w,
			AvgObjectBytes: 1, MaxCacheBytes: 1000})
		if err != nil {
			t.Fatal(err)
		}
		v := m.OverallHitRatio(150)
		if v <= 0 || v >= 1 {
			t.Fatalf("%s: hit ratio %v out of (0,1)", kind, v)
		}
		h[kind] = v
	}
	if h[ModelRandom] > h[ModelChe]+0.01 {
		t.Fatalf("random %v above Che LRU %v", h[ModelRandom], h[ModelChe])
	}
}

// TestKMonotoneInBEveryModel: under every kind, a larger cache never has
// a shorter characteristic time, on small skewed catalogs where one
// object can carry most of a server's traffic and the cache saturates a
// slot or two before it holds every requested object. The placement's
// seeded bounds rest on this monotonicity.
func TestKMonotoneInBEveryModel(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 300; trial++ {
		m := 1 + r.Intn(6)
		specs := make([]SiteSpec, m)
		w := make([]float64, m)
		total := 0
		for j := range specs {
			specs[j] = SiteSpec{Objects: 1 + r.Intn(60), Theta: 0.4 + 1.2*r.Float64()}
			total += specs[j].Objects
			if r.Intn(3) > 0 {
				w[j] = r.Float64()
			}
		}
		w[0] += 0.01
		for _, kind := range ModelKinds() {
			mod, err := New(ModelConfig{Kind: kind, Specs: specs, Weights: w,
				AvgObjectBytes: 1, MaxCacheBytes: int64(total)})
			if err != nil {
				t.Fatal(err)
			}
			prev := 0.0
			for c := int64(0); c <= int64(total); c++ {
				k := mod.K(c)
				if k < prev {
					t.Fatalf("trial %d, %s, %d sites: K fell from %v to %v when the cache grew to %d slots of %d",
						trial, kind, m, prev, k, c, total)
				}
				prev = k
			}
		}
	}
}
