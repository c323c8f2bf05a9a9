// Package trace defines a compact binary format for CDN request traces.
//
// The paper notes that "no CDN log files exist in the public domain"
// (§5.1), which is why it generates synthetic workloads. This package
// makes those synthetic workloads exportable and replayable: a recorded
// trace can be fed back to the simulator (sim.RunSource), shared between
// runs, or read back with NewReader — and a real CDN log, converted
// once to this format, can drive every experiment in the repository in
// place of the SURGE model.
//
// Format (little endian):
//
//	header: magic "CDNT" | version uint16 | servers uint16 |
//	        sites uint16 | reserved uint16 | objectsPerSite uint32
//	record: server uint16 | site uint16 | object uint32 | flags uint8
//
// Records repeat until EOF. Flag bit 0 is "cacheable".
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/workload"
)

// Magic identifies trace files.
const Magic = "CDNT"

// Version is the current format version.
const Version = 1

const (
	headerSize    = 16
	recordSize    = 9
	flagCacheable = 1 << 0
)

// Header carries the trace's dimensions, used for validation on replay.
type Header struct {
	Servers        int
	Sites          int
	ObjectsPerSite int
}

// Writer streams requests to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	h   Header
	n   int64
	err error
}

// NewWriter writes the header and returns a record writer. Call Flush
// when done.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Servers < 1 || h.Servers > 65535 || h.Sites < 1 || h.Sites > 65535 ||
		h.ObjectsPerSite < 1 || h.ObjectsPerSite > math.MaxUint32 {
		return nil, fmt.Errorf("trace: header out of range: %+v", h)
	}
	bw := bufio.NewWriter(w)
	var buf [headerSize]byte
	copy(buf[0:4], Magic)
	binary.LittleEndian.PutUint16(buf[4:6], Version)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(h.Servers))
	binary.LittleEndian.PutUint16(buf[8:10], uint16(h.Sites))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(h.ObjectsPerSite))
	if _, err := bw.Write(buf[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, h: h}, nil
}

// Write appends one request record.
func (w *Writer) Write(req workload.Request) error {
	if w.err != nil {
		return w.err
	}
	if req.Server < 0 || req.Server >= w.h.Servers ||
		req.Site < 0 || req.Site >= w.h.Sites || req.Object < 1 || req.Object > w.h.ObjectsPerSite {
		w.err = fmt.Errorf("trace: request %+v outside header bounds %+v", req, w.h)
		return w.err
	}
	var buf [recordSize]byte
	binary.LittleEndian.PutUint16(buf[0:2], uint16(req.Server))
	binary.LittleEndian.PutUint16(buf[2:4], uint16(req.Site))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(req.Object))
	if req.Cacheable {
		buf[8] = flagCacheable
	}
	if _, err := w.w.Write(buf[:]); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader streams requests from an io.Reader.
type Reader struct {
	r *bufio.Reader
	h Header
	n int64
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var buf [headerSize]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(buf[0:4]) != Magic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	h := Header{
		Servers:        int(binary.LittleEndian.Uint16(buf[6:8])),
		Sites:          int(binary.LittleEndian.Uint16(buf[8:10])),
		ObjectsPerSite: int(binary.LittleEndian.Uint32(buf[12:16])),
	}
	if h.ObjectsPerSite < 1 {
		return nil, fmt.Errorf("trace: header has %d objects per site", h.ObjectsPerSite)
	}
	return &Reader{r: br, h: h}, nil
}

// Header returns the trace header.
func (r *Reader) Header() Header { return r.h }

// Read returns the next request; io.EOF at the end of the trace.
func (r *Reader) Read() (workload.Request, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if err == io.EOF {
			return workload.Request{}, io.EOF
		}
		return workload.Request{}, fmt.Errorf("trace: truncated record %d: %w", r.n, err)
	}
	req := workload.Request{
		Server:    int(binary.LittleEndian.Uint16(buf[0:2])),
		Site:      int(binary.LittleEndian.Uint16(buf[2:4])),
		Object:    int(binary.LittleEndian.Uint32(buf[4:8])),
		Cacheable: buf[8]&flagCacheable != 0,
	}
	if req.Server >= r.h.Servers || req.Site >= r.h.Sites || req.Object < 1 || req.Object > r.h.ObjectsPerSite {
		return workload.Request{}, fmt.Errorf("trace: record %d out of header bounds", r.n)
	}
	r.n++
	return req, nil
}

// Next implements sim.Source: it returns ok=false at EOF and panics on a
// corrupt trace (replay of a corrupt file is a programming/data error,
// not a recoverable condition mid-simulation).
func (r *Reader) Next() (workload.Request, bool) {
	req, err := r.Read()
	if err == io.EOF {
		return workload.Request{}, false
	}
	if err != nil {
		panic(err)
	}
	return req, true
}
