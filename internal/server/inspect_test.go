package server

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// inspect sends one KindInspect and parses the document out of the reply.
func inspect(t *testing.T, n *Node, req *wire.Request) forensics.Document {
	t.Helper()
	req.Kind = wire.KindInspect
	resp := n.Handle(context.Background(), req)
	if resp.Status != wire.StatusOK || resp.Inspect == nil {
		t.Fatalf("inspect = %+v, want StatusOK with a document", resp)
	}
	var doc forensics.Document
	if err := json.Unmarshal(resp.Inspect.Doc, &doc); err != nil {
		t.Fatalf("Doc is not the document: %v\n%s", err, resp.Inspect.Doc)
	}
	return doc
}

// TestInspectServesTheNodesDocument: one request returns the node's spans —
// of the trace asked for — and its forensic snapshot with causes intact; a
// node recording neither still answers StatusOK, with the empty parts; and
// the fetch is client work: refused past its deadline and shed by a full
// admission gate, like the two kinds it replaced.
func TestInspectServesTheNodesDocument(t *testing.T) {
	n := NewNode(0, Config{StatsWindow: time.Hour, Tracer: trace.New(16), MaxInflight: 1, QueueDepth: 1})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	for _, id := range []string{"t1", "t2"} {
		n.Handle(context.Background(), &wire.Request{
			Kind: wire.KindRead, TxID: id, TraceID: id, SpanID: 7,
			Read: &wire.ReadRequest{Object: "a"},
		})
	}
	n.noteConflict(&wire.Request{TxID: "t1"}, "a", forensics.Witness("holder", true))

	doc := inspect(t, n, &wire.Request{Inspect: &wire.InspectRequest{TraceID: "t2"}})
	if len(doc.Spans) != 1 || doc.Spans[0].Trace != "t2" || doc.Spans[0].Name != "serve-read" || doc.Spans[0].Parent != 7 {
		t.Fatalf("spans of trace t2 = %+v, want its one serve-read", doc.Spans)
	}
	f := doc.Forensics
	if f.TotalAborts != 1 || len(f.Aborts) != 1 || f.Aborts[0].Cause != forensics.CauseLockConflict ||
		f.Aborts[0].ConflictingTxID != "holder/shared" || len(f.HotKeys) != 1 || f.HotKeys[0].Key != "a" {
		t.Fatalf("forensic part = %+v, want the one lock conflict on a", f)
	}
	if all := inspect(t, n, &wire.Request{Inspect: &wire.InspectRequest{}}); len(all.Spans) != 2 {
		t.Fatalf("unfiltered fetch returned %d spans, want 2", len(all.Spans))
	}

	bare := NewNode(1, Config{StatsWindow: time.Hour, NoForensics: true})
	if doc := inspect(t, bare, &wire.Request{Inspect: &wire.InspectRequest{}}); len(doc.Spans) != 0 || doc.Forensics.TotalAborts != 0 || len(doc.Forensics.HotKeys) != 0 {
		t.Fatalf("untraced -no-forensics node answered %+v, want the empty parts", doc)
	}

	expired := &wire.Request{Kind: wire.KindInspect, Deadline: time.Now().Add(-time.Minute).UnixNano(), Inspect: &wire.InspectRequest{}}
	if resp := n.Handle(context.Background(), expired); resp.Status != wire.StatusOverloaded {
		t.Fatalf("inspect past its deadline = %v, want StatusOverloaded", resp.Status)
	}

	// Fill the gate — its one slot and its one queue place — and ask again.
	release, shed := n.gate.acquire(context.Background())
	if shed != nil {
		t.Fatalf("idle gate shed: %+v", shed)
	}
	queued := make(chan func(), 1)
	go func() {
		rel, _ := n.gate.acquire(context.Background())
		queued <- rel
	}()
	waitFor(t, "the queue place to be taken", func() bool { return n.gate.queueLen() == 1 })
	if resp := n.Handle(context.Background(), &wire.Request{Kind: wire.KindInspect, Inspect: &wire.InspectRequest{}}); resp.Status != wire.StatusOverloaded {
		t.Fatalf("inspect at a full gate = %v, want StatusOverloaded", resp.Status)
	}
	release()
	(<-queued)()
}
