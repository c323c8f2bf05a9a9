package fault

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestInjectorModes(t *testing.T) {
	inj := NewInjector()
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	h := inj.Wrap(ok)

	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/x", nil))
		return w
	}

	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("pass-through: code %d", w.Code)
	}
	inj.Set(ModeError, 0)
	if w := get(); w.Code != http.StatusServiceUnavailable || w.Header().Get("X-Cdn-Fault") == "" {
		t.Fatalf("error mode: code %d, fault header %q", w.Code, w.Header().Get("X-Cdn-Fault"))
	}
	inj.Set(ModeLatency, 5*time.Millisecond)
	start := time.Now()
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("latency mode: code %d", w.Code)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("latency mode returned after %v, want >= 5ms", d)
	}
	inj.Set(ModeOff, 0)
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("off again: code %d", w.Code)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeOff, ModeError, ModeLatency, ModeBlackhole} {
		got, ok := ParseMode(m.String())
		if !ok || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := ParseMode("bogus"); ok {
		t.Fatal("ParseMode accepted bogus mode")
	}
}
