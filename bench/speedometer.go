package main

import "time"

// speedometer is a fixed piece of memory-bound work the benchmark owns:
// speedometerOps increments at pseudo-random keys of a hash map whose
// working set sits in the shared last-level cache when the host is quiet
// and is pushed out to memory when the neighbours are busy. It changes no
// reported number: its reading is printed beside them (rt.speedometer_ms,
// and per workload in a ledger), so that two sets of runs made while the
// host was in different moods are not mistaken for two different programs.
type speedometer struct {
	m        map[uint64]uint64
	x        uint64
	readings []float64
}

const (
	speedometerKeys = 200_000
	speedometerOps  = 25_000
	// speedometerBurst is how many pieces one reading takes.
	speedometerBurst = 8
	// speedometerRef is the reading, in milliseconds, the end-to-end
	// metrics are reported at: what this host reads when it is quiet.
	speedometerRef = 1.0
)

func newSpeedometer() *speedometer {
	s := &speedometer{m: make(map[uint64]uint64, speedometerKeys), x: 1}
	for k := uint64(0); k < speedometerKeys; k++ {
		s.m[k] = 0
	}
	return s
}

// piece does the fixed work once and returns its time in milliseconds.
func (s *speedometer) piece() float64 {
	start := time.Now()
	x := s.x
	for i := 0; i < speedometerOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.m[(x>>40)%speedometerKeys]++
	}
	s.x = x
	return float64(time.Since(start)) / 1e6
}

// read takes one reading, the median of a burst of pieces, and notes it.
func (s *speedometer) read() {
	burst := make([]float64, speedometerBurst)
	for i := range burst {
		burst[i] = s.piece()
	}
	s.readings = append(s.readings, median(burst))
}

// take returns the median of the readings noted since the last call and
// forgets them.
func (s *speedometer) take() float64 {
	m := median(s.readings)
	s.readings = s.readings[:0]
	return m
}
