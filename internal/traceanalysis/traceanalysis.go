// Package traceanalysis turns a JSONL span stream (internal/obs
// schema) into the aggregates cmd/cdntrace prints: per-kind latency
// quantiles, reconstructed trace trees, critical paths of the slowest
// requests, and retry/failover breakdowns. It also hosts the schema
// checks behind cdntrace -check.
package traceanalysis

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Corpus is one loaded trace stream: the spans of a run, in file order.
type Corpus struct {
	Spans []obs.Span
}

// Load parses one JSONL span stream and appends it to the corpus, so
// multiple files (e.g. a cdnd trace plus a cdnsim trace) can be
// analyzed together. A record that is not a span is an error.
func (c *Corpus) Load(r io.Reader) error {
	spans, err := obs.ReadTrace(r)
	c.Spans = append(c.Spans, spans...)
	return err
}

// KindStats summarizes the durations of all spans of one kind.
type KindStats struct {
	Kind  string
	Count int
	// P50Ms..MaxMs are duration quantiles in milliseconds.
	P50Ms, P90Ms, P99Ms, MaxMs float64
}

// StatsByKind computes duration quantiles per span kind, in the
// canonical SpanKinds order; kinds with no spans are omitted. Unknown
// kinds (schema violations, surfaced separately by Check) sort after
// the canonical ones.
func (c *Corpus) StatsByKind() []KindStats {
	byKind := map[string][]float64{}
	for _, s := range c.Spans {
		byKind[s.Kind] = append(byKind[s.Kind], float64(s.DurUs)/1000)
	}
	var out []KindStats
	appendKind := func(kind string) {
		durs := byKind[kind]
		if len(durs) == 0 {
			return
		}
		sort.Float64s(durs)
		out = append(out, KindStats{
			Kind:  kind,
			Count: len(durs),
			P50Ms: quantile(durs, 0.50),
			P90Ms: quantile(durs, 0.90),
			P99Ms: quantile(durs, 0.99),
			MaxMs: durs[len(durs)-1],
		})
		delete(byKind, kind)
	}
	for _, kind := range obs.SpanKinds {
		appendKind(kind)
	}
	rest := make([]string, 0, len(byKind))
	for kind := range byKind {
		rest = append(rest, kind)
	}
	sort.Strings(rest)
	for _, kind := range rest {
		appendKind(kind)
	}
	return out
}

// quantile reads the q-quantile from an ascending slice by
// nearest-rank, matching obs.Histogram's convention closely enough for
// a report.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Trace is one reconstructed request tree.
type Trace struct {
	ID string
	// Root is the tree's root span (parentless, or the earliest span
	// when the root record was lost).
	Root *Node
	// Spans counts all spans in the tree; Hops counts the distinct
	// components (edge/site IDs per kind-class) that recorded them.
	Spans int
	// Orphans are spans whose parent ID resolves to no span in the
	// trace — zero in a well-formed trace.
	Orphans int
}

// Node is one span with its children, children sorted by start time.
type Node struct {
	obs.Span
	Children []*Node
}

// BuildTraces reconstructs trace trees from the corpus, grouped by
// trace ID. Traces are returned sorted by root duration, slowest
// first. A span whose parent is missing from the stream counts as an
// orphan and is attached under the root so it still shows up.
func (c *Corpus) BuildTraces() []*Trace {
	group := map[string][]obs.Span{}
	for _, s := range c.Spans {
		group[s.Trace] = append(group[s.Trace], s)
	}
	out := make([]*Trace, 0, len(group))
	for id, spans := range group {
		out = append(out, buildTrace(id, spans))
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Root.DurUs != out[k].Root.DurUs {
			return out[i].Root.DurUs > out[k].Root.DurUs
		}
		return out[i].ID < out[k].ID
	})
	return out
}

func buildTrace(id string, spans []obs.Span) *Trace {
	nodes := make(map[string]*Node, len(spans))
	for _, s := range spans {
		nodes[s.Span] = &Node{Span: s}
	}
	tr := &Trace{ID: id, Spans: len(spans)}
	var root *Node
	var orphans []*Node
	for _, n := range nodes {
		switch {
		case n.Parent == "":
			// Prefer the earliest-starting root if several are
			// parentless (should be exactly one in a healthy trace).
			if root == nil || n.StartUs < root.StartUs {
				if root != nil {
					orphans = append(orphans, root)
				}
				root = n
			} else {
				orphans = append(orphans, n)
			}
		case nodes[n.Parent] != nil:
			p := nodes[n.Parent]
			p.Children = append(p.Children, n)
		default:
			orphans = append(orphans, n)
			tr.Orphans++
		}
	}
	if root == nil {
		// Root record lost (e.g. a dropped write): promote the earliest
		// orphan so the trace still renders.
		sort.Slice(orphans, func(i, k int) bool { return orphans[i].StartUs < orphans[k].StartUs })
		if len(orphans) > 0 {
			root, orphans = orphans[0], orphans[1:]
		} else {
			root = &Node{Span: obs.Span{Trace: id}}
		}
	}
	for _, o := range orphans {
		root.Children = append(root.Children, o)
	}
	var sortChildren func(n *Node)
	sortChildren = func(n *Node) {
		sort.Slice(n.Children, func(i, k int) bool {
			a, b := n.Children[i], n.Children[k]
			if a.StartUs != b.StartUs {
				return a.StartUs < b.StartUs
			}
			return a.Span.Span < b.Span.Span
		})
		for _, ch := range n.Children {
			sortChildren(ch)
		}
	}
	sortChildren(root)
	tr.Root = root
	return tr
}

// CriticalPath walks from the root into the largest-duration child at
// each level — the chain of operations that bounded the request's
// latency.
func (t *Trace) CriticalPath() []*Node {
	var path []*Node
	for n := t.Root; n != nil; {
		path = append(path, n)
		var next *Node
		for _, ch := range n.Children {
			if next == nil || ch.DurUs > next.DurUs {
				next = ch
			}
		}
		n = next
	}
	return path
}

// RetryStats aggregates the retry/failover behaviour visible in a
// corpus: how much work the serving path spent beyond the first
// attempt at the first upstream.
type RetryStats struct {
	// UpstreamAttempts counts upstream spans; AttemptTagged those
	// carrying an attempt attribute (the HTTP cluster's retried
	// fetches — the simulator's virtual fetches are untagged) and
	// FirstAttemptOK the tagged ones that were attempt 1 and ended
	// "ok".
	UpstreamAttempts int
	AttemptTagged    int
	FirstAttemptOK   int
	// Retries counts retry (backoff) spans and RetryWaitMs their total
	// duration — pure added latency.
	Retries     int
	RetryWaitMs float64
	// FailoverHops histograms failover spans by their hop attribute:
	// FailoverHops[0] is preferred-source tries, higher indices are
	// failovers after a source died.
	FailoverHops map[string]int
	// SkippedEjected sums the health spans' skipped_ejected counts —
	// how often routing steered around a tracker-ejected component.
	SkippedEjected int
}

// Retry computes the corpus's retry/failover breakdown.
func (c *Corpus) Retry() RetryStats {
	st := RetryStats{FailoverHops: map[string]int{}}
	for _, s := range c.Spans {
		switch s.Kind {
		case obs.SpanUpstream:
			st.UpstreamAttempts++
			if s.Attrs["attempt"] != "" {
				st.AttemptTagged++
				if s.Attrs["attempt"] == "1" && s.Attrs["outcome"] == "ok" {
					st.FirstAttemptOK++
				}
			}
		case obs.SpanRetry:
			st.Retries++
			st.RetryWaitMs += float64(s.DurUs) / 1000
		case obs.SpanFailover:
			hop := s.Attrs["hop"]
			if hop == "" {
				hop = "?"
			}
			st.FailoverHops[hop]++
		case obs.SpanHealth:
			var n int
			fmt.Sscanf(s.Attrs["skipped_ejected"], "%d", &n)
			st.SkippedEjected += n
		}
	}
	return st
}

// Check runs every span through the obs schema validator and verifies
// parent links resolve within their trace, returning all violations
// (capped at 20 so a rotten file doesn't flood the terminal).
func (c *Corpus) Check() []error {
	const maxErrs = 20
	var errs []error
	add := func(err error) bool {
		if len(errs) < maxErrs {
			errs = append(errs, err)
		}
		return len(errs) < maxErrs
	}
	byTrace := map[string]map[string]bool{}
	for _, s := range c.Spans {
		ids := byTrace[s.Trace]
		if ids == nil {
			ids = map[string]bool{}
			byTrace[s.Trace] = ids
		}
		ids[s.Span] = true
	}
	for _, s := range c.Spans {
		if err := obs.ValidateSpan(s); err != nil {
			if !add(err) {
				return errs
			}
			continue
		}
		if s.Parent != "" && !byTrace[s.Trace][s.Parent] {
			if !add(fmt.Errorf("span %s (kind %s) has unresolved parent %s in trace %s",
				s.Span, s.Kind, s.Parent, s.Trace)) {
				return errs
			}
		}
	}
	return errs
}
