package dtm_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// tracedCluster is what the tracing acceptance test needs of a cluster,
// whichever transport joins it.
type tracedCluster interface {
	Seed(map[store.ObjectID]store.Value)
	Runtime(int, dtm.Config) *dtm.Runtime
	Spans(traceID string) []trace.Span
}

// TestDistributedTraceOfPartialRollback is the tracing acceptance test: a
// multi-node transaction suffers exactly one partial rollback, its spans
// are fetched from the client runtime and from every server, and the
// reassembled timeline shows the retry nested under its Block span with
// server-side serve spans hanging off the client spans that issued them. The
// servers' spans come back over wire.KindInspect: on the channel network with
// real serialization, and over TCP.
func TestDistributedTraceOfPartialRollback(t *testing.T) {
	cfg := cluster.Config{Servers: 10, StatsWindow: time.Hour, TraceCapacity: 4096}
	t.Run("channel+binary", func(t *testing.T) {
		cfg := cfg
		cfg.Network.Codec = wire.Binary
		c := cluster.New(cfg)
		t.Cleanup(c.Close)
		testDistributedTraceOfPartialRollback(t, c, len(c.Nodes))
	})
	t.Run("tcp", func(t *testing.T) {
		c, err := cluster.NewTCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		testDistributedTraceOfPartialRollback(t, c, len(c.Nodes))
	})
}

func testDistributedTraceOfPartialRollback(t *testing.T, c tracedCluster, servers int) {
	c.Seed(map[store.ObjectID]store.Value{
		"cold": store.Int64(1),
		"hot":  store.Int64(1),
		"tail": store.Int64(1),
	})
	rt := c.Runtime(1, dtm.Config{Seed: 2, Tracer: trace.New(4096), TraceSample: 1})
	other := c.Runtime(2, dtm.Config{Seed: 3})
	ctx := context.Background()

	subRuns := 0
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		if _, err := tx.Read("cold"); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			subRuns++
			if _, err := s.Read("hot"); err != nil {
				return err
			}
			if subRuns == 1 {
				if err := other.Atomic(ctx, func(o *dtm.Tx) error {
					return o.Write("hot", store.Int64(2))
				}); err != nil {
					return fmt.Errorf("interfering commit: %v", err)
				}
			}
			// Incremental validation on this read notices "hot" is stale;
			// "hot" belongs to this sub-transaction, so only it re-executes.
			if _, err := s.Read("tail"); err != nil {
				return err
			}
			return s.Write("tail", store.Int64(5))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if subRuns != 2 {
		t.Fatalf("sub ran %d times, want 2 (one partial rollback)", subRuns)
	}

	clientSpans := rt.Tracer().Spans()
	ids := trace.TraceIDs(clientSpans)
	if len(ids) != 1 {
		t.Fatalf("client recorded %d trace IDs (%v), want 1", len(ids), ids)
	}
	traceID := ids[0]

	// Fetch: client ring + every node's ring over the inspect RPC.
	var nodes []quorum.NodeID
	for i := 0; i < servers; i++ {
		nodes = append(nodes, quorum.NodeID(i))
	}
	spans, err := rt.FetchSpans(ctx, nodes, traceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) <= len(clientSpans) {
		t.Fatalf("fetched %d spans, want more than the client's own %d (no server spans came back)",
			len(spans), len(clientSpans))
	}

	roots := trace.AssembleTrace(spans, traceID)
	if len(roots) != 1 || roots[0].Name != "tx" {
		t.Fatalf("assembled %d roots (first %q), want one 'tx' root", len(roots), roots[0].Name)
	}
	root := roots[0]

	// The committed attempt holds the retried block: block-1 with try-0
	// (rolled back) and try-1 (merged) nested under it.
	block := root.Find("block-1")
	if block == nil {
		t.Fatalf("no block-1 span in the timeline:\n%s", trace.Timeline(spans))
	}
	try0, try1 := block.Find("try-0"), block.Find("try-1")
	if try0 == nil || try1 == nil {
		t.Fatalf("block-1 is missing its tries (try-0=%v try-1=%v):\n%s",
			try0 != nil, try1 != nil, trace.Timeline(spans))
	}
	if try0.Parent != block.ID || try1.Parent != block.ID {
		t.Fatalf("tries not parented to block-1: try0.Parent=%d try1.Parent=%d block.ID=%d",
			try0.Parent, try1.Parent, block.ID)
	}
	if !strings.Contains(try0.Detail, "rolled back") && try0.Detail == "merged" {
		t.Fatalf("try-0 should record the rollback, got detail %q", try0.Detail)
	}
	if try1.Detail != "merged" {
		t.Fatalf("try-1 detail = %q, want merged", try1.Detail)
	}

	// Server-side serve spans must appear inside the tree, parented to the
	// client spans that issued the requests (cross-process assembly).
	var serveSpans, fsyncSpans int
	var walk func(n *trace.SpanNode)
	byID := map[uint64]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	walk = func(n *trace.SpanNode) {
		if strings.HasPrefix(n.Name, "serve-") {
			serveSpans++
			if !strings.HasPrefix(n.Site, "node-") {
				t.Errorf("serve span %q on site %q, want a node site", n.Name, n.Site)
			}
			parent, ok := byID[n.Parent]
			if !ok {
				t.Errorf("serve span %q parent %d not in the trace", n.Name, n.Parent)
			} else if !strings.HasPrefix(parent.Site, "client-") {
				t.Errorf("serve span %q parented to %q on %q, want a client span",
					n.Name, parent.Name, parent.Site)
			}
		}
		if n.Name == "wal-fsync" {
			fsyncSpans++
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	if serveSpans == 0 {
		t.Fatalf("no serve-* spans assembled under the tx root:\n%s", trace.Timeline(spans))
	}

	// The retried read of "hot" must have produced serve-read spans on more
	// than one node (a quorum), proving the trace context crossed the wire.
	sites := map[string]bool{}
	for _, s := range spans {
		if s.Name == "serve-read" {
			sites[s.Site] = true
		}
	}
	if len(sites) < 2 {
		t.Fatalf("serve-read spans on %d site(s) %v, want a quorum's worth", len(sites), sites)
	}

	// Export sanity: the assembled spans render as valid Chrome JSON.
	if _, err := trace.ChromeTrace(spans); err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}

	// Filtered server fetch returns only this trace's spans.
	nodeSpans := c.Spans(traceID)
	for _, s := range nodeSpans {
		if s.Trace != traceID {
			t.Fatalf("Cluster.Spans(%q) returned span of trace %q", traceID, s.Trace)
		}
	}
	if len(nodeSpans) == 0 {
		t.Fatal("Cluster.Spans returned nothing for the committed trace")
	}
}
