package fault

import (
	"encoding/binary"
	"math"
	"testing"
)

// eventBytes is the size of one fuzzed event: At (int32), Comp (uint8),
// ID (int16), Kind (uint8) and the bits of ExtraMs (uint64).
const eventBytes = 16

// decodeEvents cuts data into events, eventBytes each; a short tail is
// dropped.
func decodeEvents(data []byte) []Event {
	var events []Event
	for ; len(data) >= eventBytes; data = data[eventBytes:] {
		events = append(events, Event{
			At:      int(int32(binary.LittleEndian.Uint32(data[0:]))),
			Comp:    Component(data[4]),
			ID:      int(int16(binary.LittleEndian.Uint16(data[5:]))),
			Kind:    Kind(data[7]),
			ExtraMs: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		})
	}
	return events
}

// encodeEvents is decodeEvents' inverse, for the seed corpus.
func encodeEvents(events ...Event) []byte {
	var out []byte
	for _, e := range events {
		var b [eventBytes]byte
		binary.LittleEndian.PutUint32(b[0:], uint32(int32(e.At)))
		b[4] = byte(e.Comp)
		binary.LittleEndian.PutUint16(b[5:], uint16(int16(e.ID)))
		b[7] = byte(e.Kind)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.ExtraMs))
		out = append(out, b[:]...)
	}
	return out
}

// validEvent is the rule NewSchedule enforces, stated independently: a
// known component and kind at a non-negative time and id, a positive
// finite delay on a Slow event and none on the others.
func validEvent(e Event) bool {
	if e.At < 0 || e.ID < 0 || (e.Comp != Server && e.Comp != Origin) {
		return false
	}
	switch e.Kind {
	case Crash, Recover:
		return e.ExtraMs == 0
	case Slow:
		return e.ExtraMs > 0 && !math.IsInf(e.ExtraMs, 1)
	}
	return false
}

// FuzzScheduleValidate feeds NewSchedule arbitrary event lists. It must
// accept exactly the lists whose every event is valid, and an accepted
// schedule must hold the input's events ordered by time, events of
// equal time in input order, unaffected by later edits to the input.
func FuzzScheduleValidate(f *testing.F) {
	f.Add(encodeEvents(
		Event{At: 30, Comp: Origin, ID: 1, Kind: Crash},
		Event{At: 10, Comp: Server, ID: 2, Kind: Slow, ExtraMs: 40},
		Event{At: 30, Comp: Origin, ID: 1, Kind: Recover},
		Event{At: 20, Comp: Server, ID: 2, Kind: Recover},
	))
	f.Add(encodeEvents(Event{At: 0, Comp: Server, ID: 0, Kind: Slow, ExtraMs: -1}))
	f.Add(encodeEvents(Event{At: 5, Comp: Server, ID: 3, Kind: Crash, ExtraMs: 2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		if len(events) > 256 {
			events = events[:256]
		}
		want := true
		for _, e := range events {
			want = want && validEvent(e)
		}
		s, err := NewSchedule(events...)
		if (err == nil) != want {
			t.Fatalf("NewSchedule(%+v): error %v, want valid = %v", events, err, want)
		}
		if err != nil {
			return
		}
		got := s.Events()
		if s.Len() != len(events) || len(got) != len(events) {
			t.Fatalf("%d events in, Len %d and %d out", len(events), s.Len(), len(got))
		}
		// Stable time order: got is sorted, and the events of each time
		// come out in the order they went in.
		byTime := map[int][]Event{}
		for _, e := range events {
			byTime[e.At] = append(byTime[e.At], e)
		}
		for k, e := range got {
			if k > 0 && e.At < got[k-1].At {
				t.Fatalf("events out of time order: %+v", got)
			}
			if len(byTime[e.At]) == 0 || byTime[e.At][0] != e {
				t.Fatalf("event %d = %+v is not the next input event at time %d", k, e, e.At)
			}
			byTime[e.At] = byTime[e.At][1:]
		}
		maxID := map[Component]int{Server: -1, Origin: -1}
		for _, e := range events {
			maxID[e.Comp] = max(maxID[e.Comp], e.ID)
		}
		for comp, id := range maxID {
			if s.MaxID(comp) != id {
				t.Fatalf("MaxID(%s) = %d, want %d", comp, s.MaxID(comp), id)
			}
		}
		// The schedule owns its events.
		if len(events) > 0 {
			before := got[0]
			for k := range events {
				events[k].At++
			}
			if s.Events()[0] != before {
				t.Fatal("editing the input changed the schedule")
			}
		}
	})
}
