package dtm_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// TestInspectReportsUnreadableNodesAndMergesTheRest: a node that answers a
// well-formed frame whose Doc is not the document — not JSON at all, or JSON
// of another shape — is a per-node failure like one that does not answer:
// named in the error, no panic, and the other nodes' parts still merged. Only
// a sweep in which every node failed returns no document.
func TestInspectReportsUnreadableNodesAndMergesTheRest(t *testing.T) {
	c := cluster.New(cluster.Config{
		Servers: 5, StatsWindow: time.Hour, TraceCapacity: 16,
		Network: transport.ChannelConfig{Codec: wire.Binary},
	})
	t.Cleanup(c.Close)
	answering := func(doc string) transport.Handler {
		return func(context.Context, *wire.Request) *wire.Response {
			return &wire.Response{Status: wire.StatusOK, Inspect: &wire.InspectResponse{Doc: []byte(doc)}}
		}
	}
	c.Net.Register(1, answering("\x00\x01 not a document"))
	c.Net.Register(2, answering(`{"spans": "many", "forensics": [1, 2, 3]}`))
	c.Kill(3)
	for _, n := range []quorum.NodeID{0, 4} {
		c.Nodes[n].Forensics().RecordAbort(forensics.AbortEvent{TxID: "t", Key: "k", Cause: forensics.CauseLockConflict})
	}
	ctx := context.Background()
	all := []quorum.NodeID{0, 1, 2, 3, 4}

	doc, err := dtm.Inspect(ctx, c.Net, all, "", 4)
	if doc == nil {
		t.Fatalf("no document although nodes 0 and 4 answered: %v", err)
	}
	if f := doc.Forensics; f.TotalAborts != 2 || len(f.Aborts) != 2 || len(f.HotKeys) != 1 || f.HotKeys[0].Conflicts != 2 {
		t.Fatalf("merged %+v, want the two good nodes' events and their shared hot key", f)
	}
	if err == nil {
		t.Fatal("three unreadable nodes went unreported")
	}
	for _, want := range []string{"node 1", "node 2", "node 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %s: %v", want, err)
		}
	}
	for _, good := range []string{"node 0", "node 4"} {
		if strings.Contains(err.Error(), good) {
			t.Errorf("error blames %s: %v", good, err)
		}
	}

	// Runtime.FetchSpans keeps its contract over the same helper: partial
	// failures are skipped, total failure is the error.
	rt := c.Runtime(1, dtm.Config{Seed: 1})
	if _, err := rt.FetchSpans(ctx, all, ""); err != nil {
		t.Fatalf("FetchSpans with two nodes answering: %v", err)
	}
	if _, err := rt.FetchSpans(ctx, []quorum.NodeID{1, 2, 3}, ""); err == nil {
		t.Fatal("FetchSpans returned no error although every node failed")
	}
	if doc, err := dtm.Inspect(ctx, c.Net, []quorum.NodeID{1, 2, 3}, "", 4); doc != nil || err == nil {
		t.Fatalf("every node failed, yet Inspect returned %+v, %v", doc, err)
	}
}
