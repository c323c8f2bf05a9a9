package lrumodel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// Table is the paper's §4 pre-computation made explicit: "the obvious
// solution to achieving the O(1) complexity is to pre-compute (off-line)
// the hit ratio of each site O_j under different values of p and K. In
// the simulation experiments, the granularity of p for the pre-computed
// values was set to 10^-5, while the granularity of K was set to 5 time
// slots."
//
// A Table holds h(p, K) for one site shape (L, θ) on a regular grid and
// answers queries by bilinear interpolation. Tables serialize to a
// compact binary format so a CDN operator can build them once per site
// shape and ship them to the placement controller.
type Table struct {
	// Objects and Theta identify the site shape the table covers.
	Objects int
	Theta   float64
	// PStep / KStep are the grid granularities.
	PStep, KStep float64
	// PMax / KMax bound the grid.
	PMax, KMax float64
	// values[ki*pCols+pi] = h(pi*PStep, ki*KStep), un-λ-adjusted.
	values []float64
	pCols  int
	kRows  int
}

// BuildTable precomputes h over p ∈ [0, pMax] and K ∈ [0, kMax] with the
// given granularities. It panics on invalid parameters (operator input
// should be validated upstream; these are programming errors).
func BuildTable(objects int, theta, pStep, pMax, kStep, kMax float64) *Table {
	switch {
	case objects < 1:
		panic(fmt.Sprintf("lrumodel: BuildTable objects=%d", objects))
	case theta < 0:
		panic(fmt.Sprintf("lrumodel: BuildTable theta=%v", theta))
	case pStep <= 0 || pMax <= 0 || pStep > pMax:
		panic(fmt.Sprintf("lrumodel: BuildTable p grid [%v..%v]", pStep, pMax))
	case kStep <= 0 || kMax <= 0 || kStep > kMax:
		panic(fmt.Sprintf("lrumodel: BuildTable K grid [%v..%v]", kStep, kMax))
	}
	t := &Table{
		Objects: objects,
		Theta:   theta,
		PStep:   pStep,
		KStep:   kStep,
		PMax:    pMax,
		KMax:    kMax,
	}
	t.pCols = int(pMax/pStep) + 1
	t.kRows = int(kMax/kStep) + 1
	t.values = make([]float64, t.pCols*t.kRows)
	z := stats.NewZipfRange(1, objects, theta)
	for ki := 0; ki < t.kRows; ki++ {
		K := float64(ki) * kStep
		for pi := 0; pi < t.pCols; pi++ {
			p := float64(pi) * pStep
			t.values[ki*t.pCols+pi] = hitRatioExact(p, z, K)
		}
	}
	return t
}

// Lookup returns h(p, K) by bilinear interpolation, clamping inputs to
// the grid. K = +Inf returns the hit ratio at KMax (callers should
// special-case the everything-fits regime themselves, as Predictor
// does).
func (t *Table) Lookup(p, K float64) float64 {
	if p <= 0 || K <= 0 {
		return 0
	}
	if math.IsInf(K, 1) || K > t.KMax {
		K = t.KMax
	}
	if p > t.PMax {
		p = t.PMax
	}
	pf := p / t.PStep
	kf := K / t.KStep
	pi := int(pf)
	ki := int(kf)
	if pi >= t.pCols-1 {
		pi = t.pCols - 2
	}
	if ki >= t.kRows-1 {
		ki = t.kRows - 2
	}
	fp := pf - float64(pi)
	fk := kf - float64(ki)
	v00 := t.values[ki*t.pCols+pi]
	v01 := t.values[ki*t.pCols+pi+1]
	v10 := t.values[(ki+1)*t.pCols+pi]
	v11 := t.values[(ki+1)*t.pCols+pi+1]
	return (v00*(1-fp)+v01*fp)*(1-fk) + (v10*(1-fp)+v11*fp)*fk
}

// tableMagic identifies serialized tables.
const tableMagic = "LRUT"

// WriteTo serializes the table (binary, little endian).
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(tableMagic); err != nil {
		return n, err
	}
	n += 4
	for _, v := range []interface{}{
		int64(t.Objects), t.Theta, t.PStep, t.KStep, t.PMax, t.KMax,
		int64(t.pCols), int64(t.kRows),
	} {
		if err := write(v); err != nil {
			return n, err
		}
	}
	if err := write(t.values); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadTable deserializes a table written by WriteTo.
func ReadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("lrumodel: short table header: %w", err)
	}
	if string(magic) != tableMagic {
		return nil, fmt.Errorf("lrumodel: bad table magic %q", magic)
	}
	t := &Table{}
	var objects, pCols, kRows int64
	for _, v := range []interface{}{
		&objects, &t.Theta, &t.PStep, &t.KStep, &t.PMax, &t.KMax,
		&pCols, &kRows,
	} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("lrumodel: truncated table header: %w", err)
		}
	}
	if objects < 1 || pCols < 2 || kRows < 2 || pCols*kRows > 1<<28 {
		return nil, fmt.Errorf("lrumodel: implausible table dims (%d, %d, %d)", objects, pCols, kRows)
	}
	t.Objects = int(objects)
	t.pCols = int(pCols)
	t.kRows = int(kRows)
	t.values = make([]float64, t.pCols*t.kRows)
	if err := binary.Read(br, binary.LittleEndian, t.values); err != nil {
		return nil, fmt.Errorf("lrumodel: truncated table values: %w", err)
	}
	for _, v := range t.values {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return nil, fmt.Errorf("lrumodel: corrupt table value %v", v)
		}
	}
	return t, nil
}
