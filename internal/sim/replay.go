package sim

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/internal/workload"
)

// SpanSource replays a JSONL span trace — what Config.Tracer writes, and
// what the live cluster's edges write — as a request Source. It reads the
// whole trace through obs.ReadTrace, so a malformed record is an error
// here, before any request is stepped.
//
// A request is a serve span that answers a client: a root, or a child of
// a load generator's client span (obs.SpanClient). An edge's internal
// fetch from a peer is a serve span too, but its parent is the calling
// edge's upstream span, and it is skipped. A serve span whose parent is
// not in the trace is an error: it may be either. The requests come in
// StartUs order, ties in file order.
//
// Each request is the span's edge, site and object, cacheable, generation
// 0 and not perished unless the span's cacheable, generation or perished
// attr says otherwise (see serveAttrs). The simulator traces measured
// requests only, not the warm-up, so a replay that must reproduce a run
// runs both it and the traced run at Warmup: 0.
func SpanSource(r io.Reader) (Source, error) {
	spans, err := obs.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	type spanKey struct{ trace, span string }
	kind := make(map[spanKey]string, len(spans))
	for _, s := range spans {
		kind[spanKey{s.Trace, s.Span}] = s.Kind
	}
	var serves []obs.Span
	for _, s := range spans {
		if s.Kind != obs.SpanServe {
			continue
		}
		if s.Parent != "" {
			parent, ok := kind[spanKey{s.Trace, s.Parent}]
			if !ok {
				return nil, fmt.Errorf("sim: serve span %s: parent %s is not in the trace", s.Span, s.Parent)
			}
			if parent != obs.SpanClient {
				continue
			}
		}
		serves = append(serves, s)
	}
	slices.SortStableFunc(serves, func(a, b obs.Span) int { return cmp.Compare(a.StartUs, b.StartUs) })
	reqs := make([]workload.Request, len(serves))
	for k, s := range serves {
		if reqs[k], err = spanRequest(s); err != nil {
			return nil, err
		}
	}
	return &sliceSource{reqs: reqs}, nil
}

// spanRequest is the request serve span s records.
func spanRequest(s obs.Span) (req workload.Request, err error) {
	req = workload.Request{Server: s.Edge, Site: s.Site, Object: s.Object}
	if req.Cacheable, err = boolAttr(s, attrCacheable, true); err != nil {
		return req, err
	}
	if req.Perished, err = boolAttr(s, attrPerished, false); err != nil {
		return req, err
	}
	if v, ok := s.Attrs[attrGeneration]; ok {
		if req.Generation, err = strconv.Atoi(v); err != nil {
			return req, fmt.Errorf("sim: serve span %s: %s=%q: %w", s.Span, attrGeneration, v, err)
		}
	}
	return req, nil
}

// boolAttr is serve span s's 0/1 attr key, or def where s has none.
func boolAttr(s obs.Span, key string, def bool) (bool, error) {
	switch v, ok := s.Attrs[key]; {
	case !ok:
		return def, nil
	case v == "0" || v == "1":
		return v == "1", nil
	}
	return false, fmt.Errorf("sim: serve span %s: %s=%q, want 0 or 1", s.Span, key, s.Attrs[key])
}

// sliceSource is a Source over requests held in memory.
type sliceSource struct {
	reqs []workload.Request
	i    int
}

// Next implements Source.
func (s *sliceSource) Next() (workload.Request, bool) {
	if s.i >= len(s.reqs) {
		return workload.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}
