package fault

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestNewScheduleValidatesAndOrders(t *testing.T) {
	bad := []Event{
		{At: -1, Comp: Server, ID: 0, Kind: Crash},
		{At: 0, Comp: Server, ID: -1, Kind: Crash},
		{At: 0, Comp: Server, ID: 0, Kind: Crash, ExtraMs: 5},
		{At: 0, Comp: Server, ID: 0, Kind: Recover, ExtraMs: 5},
		{At: 0, Comp: Server, ID: 0, Kind: Slow},
		{At: 0, Comp: Server, ID: 0, Kind: Slow, ExtraMs: -1},
		{At: 0, Comp: Server, ID: 0, Kind: Kind(99)},
		{At: 0, Comp: Component(7), ID: 0, Kind: Crash},
		{At: 0, Comp: Server, ID: 0, Kind: Slow, ExtraMs: math.NaN()},
		{At: 0, Comp: Server, ID: 0, Kind: Slow, ExtraMs: math.Inf(1)},
	}
	for _, e := range bad {
		if _, err := NewSchedule(e); err == nil {
			t.Errorf("NewSchedule(%+v): want error", e)
		}
	}

	s, err := NewSchedule(
		Event{At: 30, Comp: Origin, ID: 1, Kind: Crash},
		Event{At: 10, Comp: Server, ID: 2, Kind: Crash},
		Event{At: 30, Comp: Origin, ID: 1, Kind: Recover}, // same time: construction order kept
		Event{At: 20, Comp: Server, ID: 2, Kind: Recover},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Events()
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("events not time-ordered: %+v", got)
		}
	}
	if got[2].Kind != Crash || got[3].Kind != Recover {
		t.Fatalf("equal-time events reordered: %+v", got[2:])
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.MaxID(Server) != 2 || s.MaxID(Origin) != 1 {
		t.Fatalf("MaxID = (%d, %d), want (2, 1)", s.MaxID(Server), s.MaxID(Origin))
	}
	if empty := MustSchedule(); empty.MaxID(Server) != -1 {
		t.Fatalf("empty MaxID = %d, want -1", empty.MaxID(Server))
	}
}

func TestCrashesDegenerateSchedule(t *testing.T) {
	s := Crashes(100, []int{3, 1}, []int{0})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, e := range s.Events() {
		if e.At != 100 || e.Kind != Crash {
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	cfg := RandomConfig{
		Servers: 20, Origins: 8,
		ServerCrashes: 5, OriginCrashes: 2,
		CrashFrom: 50, CrashTo: 150, Downtime: 40,
	}
	a, err := Random(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("equal seeds produced different schedules")
	}
	crashed := map[Component]map[int]bool{Server: {}, Origin: {}}
	for _, e := range a.Events() {
		switch e.Kind {
		case Crash:
			if e.At < cfg.CrashFrom || e.At >= cfg.CrashTo {
				t.Fatalf("crash at %d outside [%d,%d)", e.At, cfg.CrashFrom, cfg.CrashTo)
			}
			if crashed[e.Comp][e.ID] {
				t.Fatalf("%s %d crashed twice", e.Comp, e.ID)
			}
			crashed[e.Comp][e.ID] = true
		case Recover:
		default:
			t.Fatalf("unexpected kind %v", e.Kind)
		}
	}
	if len(crashed[Server]) != 5 || len(crashed[Origin]) != 2 {
		t.Fatalf("crashed %d servers, %d origins; want 5, 2",
			len(crashed[Server]), len(crashed[Origin]))
	}

	for _, bad := range []RandomConfig{
		{Servers: 2, ServerCrashes: 3},
		{Origins: 1, OriginCrashes: 2},
		{Servers: 1, ServerCrashes: -1},
		{CrashFrom: 10, CrashTo: 5},
	} {
		if _, err := Random(bad, xrand.New(1)); err == nil {
			t.Errorf("Random(%+v): want error", bad)
		}
	}
}

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
