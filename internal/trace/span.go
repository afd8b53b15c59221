package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed operation in a distributed transaction timeline. The
// client runtime mints a trace ID per sampled top-level transaction and
// records attempt/Block/retry spans; every wire request carries the trace
// ID plus the issuing span's ID, and servers record their own serve spans
// parented to it — so one transaction's full cross-node timeline can be
// reassembled from the union of all sites' span rings.
type Span struct {
	// Trace identifies the top-level transaction across all sites.
	Trace string
	// ID identifies this span. IDs are minted from a per-process counter
	// (NextSpanID); within one trace every parent reference is minted by the
	// client that drove the transaction, so parent links resolve even when
	// spans from several sites are merged.
	ID uint64
	// Parent is the enclosing span's ID (0 for a root span).
	Parent uint64
	// Name labels the operation: "tx", "attempt-0", "block-2", "try-1",
	// "commit", "serve-read", "wal-fsync", ...
	Name string
	// Site is the node that recorded the span ("client-3", "node-0").
	Site string
	// Start and End bound the operation.
	Start time.Time
	End   time.Time
	// Detail carries the outcome or object involved.
	Detail string
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

var spanSeq atomic.Uint64

func init() {
	// Span IDs must not collide across the processes contributing to one
	// trace (client + every node), yet each process's counter would start at
	// 1. Offsetting by process start time spaces the counters ~2^16 IDs per
	// nanosecond of start-time difference, making collisions vanishingly
	// unlikely without any cross-process coordination.
	spanSeq.Store(uint64(time.Now().UnixNano()) << 16)
}

// NextSpanID mints a span ID unique within this process (and, thanks to the
// time-based offset above, effectively unique across cooperating processes).
func NextSpanID() uint64 { return spanSeq.Add(1) }

// RecordSpan stores one completed span. Safe to call on a nil tracer (no-op).
func (t *Tracer) RecordSpan(s Span) {
	if t == nil {
		return
	}
	t.spans.Record(s)
}

// Spans returns the recorded spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans.Snapshot()
}

// SpansFor returns the recorded spans belonging to one trace, oldest first.
// An empty traceID returns every span.
func (t *Tracer) SpansFor(traceID string) []Span {
	all := t.Spans()
	if traceID == "" {
		return all
	}
	out := all[:0]
	for _, s := range all {
		if s.Trace == traceID {
			out = append(out, s)
		}
	}
	return out
}

// SpanNode is one span with its children, as assembled by AssembleTrace.
type SpanNode struct {
	Span
	Children []*SpanNode
}

// TraceIDs returns the distinct trace IDs present in spans, sorted.
func TraceIDs(spans []Span) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if s.Trace != "" && !seen[s.Trace] {
			seen[s.Trace] = true
			out = append(out, s.Trace)
		}
	}
	sort.Strings(out)
	return out
}

// AssembleTrace reassembles one transaction's timeline: it selects the
// spans with the given trace ID, links children to parents by span ID, and
// returns the roots (spans whose parent is 0 or absent from the set),
// everything ordered by start time.
func AssembleTrace(spans []Span, traceID string) []*SpanNode {
	nodes := make(map[uint64]*SpanNode)
	var picked []*SpanNode
	for _, s := range spans {
		if s.Trace != traceID {
			continue
		}
		n := &SpanNode{Span: s}
		nodes[s.ID] = n
		picked = append(picked, n)
	}
	var roots []*SpanNode
	for _, n := range picked {
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
	}
	byStart(roots)
	for _, n := range picked {
		byStart(n.Children)
	}
	return roots
}

// Find returns the first descendant (including n itself) whose name matches,
// depth-first, or nil.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}
