package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

func newTestNode() *Node {
	n := NewNode(0, Config{StatsWindow: time.Hour})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{
		"a": store.Int64(1),
		"b": store.Int64(2),
	})
	return n
}

func read(n *Node, tx string, obj store.ObjectID, validate []store.ReadDesc) *wire.Response {
	return n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindRead,
		TxID: tx,
		Read: &wire.ReadRequest{Object: obj, Validate: validate},
	})
}

func TestHandleReadOK(t *testing.T) {
	n := newTestNode()
	resp := read(n, "t1", "a", nil)
	if resp.Status != wire.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	if store.AsInt64(resp.Read.Value) != 1 || resp.Read.Version != 1 {
		t.Fatalf("read = %+v", resp.Read)
	}
}

func TestHandleReadNotFound(t *testing.T) {
	n := newTestNode()
	if resp := read(n, "t1", "zzz", nil); resp.Status != wire.StatusNotFound {
		t.Fatalf("status = %v, want not-found", resp.Status)
	}
}

func TestHandleReadIncrementalValidation(t *testing.T) {
	n := newTestNode()
	// Commit a write to "b" so a reader that saw b@1 is invalidated.
	commit(t, n, "w1", []store.ReadDesc{{ID: "b", Version: 1}},
		[]store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}})

	resp := read(n, "t1", "a", []store.ReadDesc{{ID: "b", Version: 1}})
	if resp.Status != wire.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	if len(resp.Read.Invalid) != 1 || resp.Read.Invalid[0] != "b" {
		t.Fatalf("Invalid = %v, want [b]", resp.Read.Invalid)
	}
}

func TestHandleReadStatsPiggyback(t *testing.T) {
	n := newTestNode()
	commit(t, n, "w1", []store.ReadDesc{{ID: "a", Version: 1}},
		[]store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}})
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindRead,
		TxID: "t1",
		Read: &wire.ReadRequest{Object: "b", StatsFor: []store.ObjectID{"a", "b"}},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	if resp.Read.Stats["a"] != 1 || resp.Read.Stats["b"] != 0 {
		t.Fatalf("Stats = %v", resp.Read.Stats)
	}
}

// TestStatsOnlyReadReturnsLevels: a read that names no object is the explicit
// contention query. It is answered OK with the levels and nothing else, even
// while the objects it asks about are exclusively protected, and records no
// conflict.
func TestStatsOnlyReadReturnsLevels(t *testing.T) {
	n := newTestNode()
	commit(t, n, "w1", []store.ReadDesc{{ID: "a", Version: 1}},
		[]store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}})
	if p := prepare(n, "holder", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 2}},
		Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(6), NewVersion: 3}},
		Quorum: []quorum.NodeID{0},
	}); !p.Prepare.Vote {
		t.Fatalf("holder prepare: %+v", p)
	}
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindRead,
		Read: &wire.ReadRequest{StatsFor: []store.ObjectID{"a", "b"}},
	})
	if resp.Status != wire.StatusOK || resp.ConflictTx != "" || resp.Read == nil {
		t.Fatalf("stats read: %+v", resp)
	}
	if r := resp.Read; r.Value != nil || r.Version != 0 || r.Invalid != nil || r.Stats["a"] != 1 || r.Stats["b"] != 0 {
		t.Fatalf("stats read answered %+v, want levels a=1 b=0 and no value", r)
	}
	if s := n.Forensics().Snapshot(4); s.TotalAborts != 0 {
		t.Fatalf("a stats read noted a conflict: %+v", s.Aborts)
	}
}

// commit drives a full successful 2PC against a single node.
func commit(t *testing.T, n *Node, tx string, reads []store.ReadDesc, writes []store.WriteDesc) {
	t.Helper()
	resp := n.Handle(context.Background(), &wire.Request{
		Kind:    wire.KindPrepare,
		TxID:    tx,
		Prepare: &wire.PrepareRequest{Reads: reads, Writes: writes},
	})
	if resp.Status != wire.StatusOK || !resp.Prepare.Vote {
		t.Fatalf("prepare failed: %+v", resp)
	}
	release := make([]store.ObjectID, 0, len(reads))
	for _, r := range reads {
		release = append(release, r.ID)
	}
	resp = n.Handle(context.Background(), &wire.Request{
		Kind:     wire.KindDecision,
		TxID:     tx,
		Decision: &wire.DecisionRequest{Commit: true, Writes: writes, Release: release},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("decision failed: %+v", resp)
	}
}

func TestPrepareDetectsStaleRead(t *testing.T) {
	n := newTestNode()
	commit(t, n, "w1", []store.ReadDesc{{ID: "a", Version: 1}},
		[]store.WriteDesc{{ID: "a", Value: store.Int64(7), NewVersion: 2}})

	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "t2",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(8), NewVersion: 2}},
		},
	})
	if resp.Status != wire.StatusOK || resp.Prepare.Vote {
		t.Fatalf("stale prepare voted yes: %+v", resp)
	}
	if len(resp.Prepare.Invalid) != 1 || resp.Prepare.Invalid[0] != "a" {
		t.Fatalf("Invalid = %v", resp.Prepare.Invalid)
	}
	// The failed prepare must not leave protections behind.
	if r := read(n, "t3", "a", nil); r.Status != wire.StatusOK {
		t.Fatalf("object still protected after failed prepare: %v", r.Status)
	}
}

func TestPrepareBusyConflict(t *testing.T) {
	n := newTestNode()
	p1 := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "t1",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}},
		},
	})
	if !p1.Prepare.Vote {
		t.Fatalf("first prepare rejected: %+v", p1)
	}
	p2 := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "t2",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(6), NewVersion: 2}},
		},
	})
	if p2.Prepare.Vote {
		t.Fatal("second prepare should be refused while first holds protections")
	}
	if len(p2.Prepare.Busy) != 1 || p2.Prepare.Busy[0] != "a" {
		t.Fatalf("Busy = %v", p2.Prepare.Busy)
	}

	// Abort t1; t2 can then prepare.
	n.Handle(context.Background(), &wire.Request{
		Kind:     wire.KindDecision,
		TxID:     "t1",
		Decision: &wire.DecisionRequest{Commit: false, Release: []store.ObjectID{"a"}},
	})
	p3 := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "t2",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(6), NewVersion: 2}},
		},
	})
	if !p3.Prepare.Vote {
		t.Fatalf("prepare after release rejected: %+v", p3)
	}
}

func TestReadOnlyPrepareDoesNotProtect(t *testing.T) {
	n := newTestNode()
	resp := n.Handle(context.Background(), &wire.Request{
		Kind:    wire.KindPrepare,
		TxID:    "ro",
		Prepare: &wire.PrepareRequest{Reads: []store.ReadDesc{{ID: "a", Version: 1}}},
	})
	if !resp.Prepare.Vote {
		t.Fatalf("read-only prepare rejected: %+v", resp)
	}
	if r := read(n, "t2", "a", nil); r.Status != wire.StatusOK {
		t.Fatalf("read-only prepare left a protection: %v", r.Status)
	}
}

func TestReadOnlyPrepareDetectsStale(t *testing.T) {
	n := newTestNode()
	commit(t, n, "w1", []store.ReadDesc{{ID: "a", Version: 1}},
		[]store.WriteDesc{{ID: "a", Value: store.Int64(3), NewVersion: 2}})
	resp := n.Handle(context.Background(), &wire.Request{
		Kind:    wire.KindPrepare,
		TxID:    "ro",
		Prepare: &wire.PrepareRequest{Reads: []store.ReadDesc{{ID: "a", Version: 1}}},
	})
	if resp.Prepare.Vote {
		t.Fatal("stale read-only prepare voted yes")
	}
}

func TestCommitCreatesNewObject(t *testing.T) {
	n := newTestNode()
	commit(t, n, "t1",
		[]store.ReadDesc{{ID: "order/1", Version: 0}},
		[]store.WriteDesc{{ID: "order/1", Value: store.String("data"), NewVersion: 1}})
	resp := read(n, "t2", "order/1", nil)
	if resp.Status != wire.StatusOK || store.AsString(resp.Read.Value) != "data" {
		t.Fatalf("read created object: %+v", resp)
	}
}

func TestDecisionRecordsContention(t *testing.T) {
	n := newTestNode()
	// Transaction IDs are single-use: a decided ID can never prepare again.
	for i := 0; i < 3; i++ {
		commit(t, n, fmt.Sprintf("t%d", i), []store.ReadDesc{{ID: "a", Version: uint64(i + 1)}},
			[]store.WriteDesc{{ID: "a", Value: store.Int64(int64(i)), NewVersion: uint64(i + 2)}})
	}
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindRead,
		Read: &wire.ReadRequest{StatsFor: []store.ObjectID{"a", "b"}},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("stats: %+v", resp)
	}
	if resp.Read.Stats["a"] != 3 || resp.Read.Stats["b"] != 0 {
		t.Fatalf("levels = %v", resp.Read.Stats)
	}
}

// prepare sends one prepare to a node.
func prepare(n *Node, tx string, p *wire.PrepareRequest) *wire.Response {
	return n.Handle(context.Background(), &wire.Request{Kind: wire.KindPrepare, TxID: tx, Prepare: p})
}

// TestAbortReleasesEverything pins the protection contract of a prepare that
// writes a and only reads b: a is held exclusively (reads and every prepare
// refused), b shared (reads and other readers pass, a writer's prepare is
// refused, with a witness naming the holder and its mode) — and an abort
// releases both.
func TestAbortReleasesEverything(t *testing.T) {
	n := newTestNode()
	p := prepare(n, "t1", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}, {ID: "b", Version: 1}},
		Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(10), NewVersion: 2}},
	})
	if !p.Prepare.Vote {
		t.Fatalf("prepare: %+v", p)
	}
	if r := read(n, "t2", "a", nil); r.Status != wire.StatusBusy || r.ConflictTx != "t1" {
		t.Fatalf("read of the written object = %v (witness %q), want busy, held exclusively by t1", r.Status, r.ConflictTx)
	}
	if r := read(n, "t2", "b", nil); r.Status != wire.StatusOK {
		t.Fatalf("read of an object t1 only read = %v, want ok (shared hold)", r.Status)
	}
	// Another transaction that only reads b prepares beside t1 ...
	reader := prepare(n, "t3", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "b", Version: 1}, {ID: "c", Version: 0}},
		Writes: []store.WriteDesc{{ID: "c", Value: store.Int64(1), NewVersion: 1}},
	})
	if !reader.Prepare.Vote {
		t.Fatalf("second reader of b refused: %+v", reader)
	}
	// ... a writer of b does not, and learns who refused it and in what mode.
	writeB := &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "b", Version: 1}},
		Writes: []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}},
	}
	writer := prepare(n, "t4", writeB)
	if writer.Prepare.Vote || len(writer.Prepare.Busy) != 1 || writer.Prepare.Busy[0] != "b" {
		t.Fatalf("writer of a shared-held object: %+v, want busy on b", writer.Prepare)
	}
	if holder, shared := forensics.SplitWitness(writer.ConflictTx); !shared || (holder != "t1" && holder != "t3") {
		t.Fatalf("witness = %q, want a shared hold by t1 or t3", writer.ConflictTx)
	}
	evs := n.Forensics().Aborts()
	if last := evs[len(evs)-1]; last.Key != "b" || last.ConflictingTxID != writer.ConflictTx {
		t.Fatalf("forensic event = %+v, want key b with the reply's witness", last)
	}

	for _, tx := range []string{"t1", "t3"} {
		n.Handle(context.Background(), &wire.Request{
			Kind:     wire.KindDecision,
			TxID:     tx,
			Decision: &wire.DecisionRequest{Commit: false, Release: []store.ObjectID{"a", "b", "c"}},
		})
	}
	if r := read(n, "t2", "a", nil); r.Status != wire.StatusOK || store.AsInt64(r.Read.Value) != 1 {
		t.Fatalf("abort did not roll back: %+v", r)
	}
	for id, o := range n.Store().Snapshot() {
		if o.Protected || len(o.SharedBy) > 0 {
			t.Fatalf("%s still held after the aborts: exclusive %q shared %v", id, o.ProtectedBy, o.SharedBy)
		}
	}
	if w := prepare(n, "t5", writeB); !w.Prepare.Vote {
		t.Fatalf("writer of b after the release: %+v", w)
	}
}

// TestReadOnlyParticipantHoldsItsReads pins the cross-shard participant
// rule: a prepare that writes nothing here but names a Quorum is one part of
// a 2PC whose writes live in another group. It must hold its reads (shared)
// and stay in doubt until the decision — a validation-only vote would let a
// writer of those reads commit between this vote and the decision.
func TestReadOnlyParticipantHoldsItsReads(t *testing.T) {
	n := newTestNode()
	part := prepare(n, "x1", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
		Quorum: []quorum.NodeID{0, 7},
	})
	if !part.Prepare.Vote {
		t.Fatalf("read-only participant refused: %+v", part)
	}
	if got := n.InDoubt(); len(got) != 1 || got[0] != "x1" {
		t.Fatalf("in-doubt = %v, want the participant's vote", got)
	}
	w := prepare(n, "w1", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
		Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}},
	})
	if w.Prepare.Vote {
		t.Fatal("a writer prepared over a read-only participant's read")
	}
	n.Handle(context.Background(), &wire.Request{
		Kind:     wire.KindDecision,
		TxID:     "x1",
		Decision: &wire.DecisionRequest{Commit: true, Release: []store.ObjectID{"a"}},
	})
	if len(n.InDoubt()) != 0 {
		t.Fatalf("participant still in doubt after its decision: %v", n.InDoubt())
	}
	if o := n.Store().Snapshot()["a"]; len(o.SharedBy) > 0 {
		t.Fatalf("participant's hold survived its decision: %v", o.SharedBy)
	}
}

func TestMalformedRequests(t *testing.T) {
	n := newTestNode()
	for _, req := range []*wire.Request{
		{Kind: wire.KindRead},
		{Kind: wire.KindPrepare},
		{Kind: wire.KindDecision},
		{Kind: wire.KindShardMap},
		{Kind: wire.KindSync},
		{Kind: wire.KindInspect},
		{Kind: wire.Kind(99)},
	} {
		if resp := n.Handle(context.Background(), req); resp.Status != wire.StatusError {
			t.Fatalf("req %+v: status = %v, want error", req, resp.Status)
		}
	}
	if resp := n.Handle(context.Background(), &wire.Request{Kind: wire.KindPing}); resp.Status != wire.StatusOK {
		t.Fatalf("ping = %v", resp.Status)
	}
}

func TestSyncHandlerReturnsNewer(t *testing.T) {
	n := newTestNode()
	commit(t, n, "w1", []store.ReadDesc{{ID: "a", Version: 1}},
		[]store.WriteDesc{{ID: "a", Value: store.Int64(9), NewVersion: 2}})
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindSync,
		Sync: &wire.SyncRequest{Known: []store.ReadDesc{
			{ID: "a", Version: 1}, // stale
			{ID: "b", Version: 1}, // current
		}},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	if len(resp.Sync.Objects) != 1 || resp.Sync.Objects[0].ID != "a" || resp.Sync.Objects[0].NewVersion != 2 {
		t.Fatalf("sync objects = %+v", resp.Sync.Objects)
	}
	if store.AsInt64(resp.Sync.Objects[0].Value) != 9 {
		t.Fatal("sync carried wrong value")
	}
}

func TestSyncSkipsProtectedObjects(t *testing.T) {
	n := newTestNode()
	if err := n.Store().Protect("a", "tx-in-flight", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().ProtectShared("b", "tx-in-flight"); err != nil {
		t.Fatal(err)
	}
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindSync,
		Sync: &wire.SyncRequest{Known: nil},
	})
	shipped := map[store.ObjectID]bool{}
	for _, w := range resp.Sync.Objects {
		shipped[w.ID] = true
	}
	if shipped["a"] {
		t.Fatal("sync shipped an exclusively protected (mid-commit) object")
	}
	if !shipped["b"] {
		t.Fatal("sync held back an object that is only shared-protected")
	}
}

func TestHandleBatchReads(t *testing.T) {
	n := newTestNode()
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindBatch,
		TxID: "t1",
		Batch: &wire.BatchRequest{Subs: []*wire.Request{
			{Kind: wire.KindRead, TxID: "t1", Read: &wire.ReadRequest{Object: "a"}},
			{Kind: wire.KindRead, TxID: "t1", Read: &wire.ReadRequest{Object: "b"}},
			{Kind: wire.KindRead, TxID: "t1", Read: &wire.ReadRequest{Object: "zzz"}},
		}},
	})
	if resp.Status != wire.StatusOK || resp.Batch == nil || len(resp.Batch.Subs) != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	if store.AsInt64(resp.Batch.Subs[0].Read.Value) != 1 || store.AsInt64(resp.Batch.Subs[1].Read.Value) != 2 {
		t.Fatalf("batch values = %+v %+v", resp.Batch.Subs[0].Read, resp.Batch.Subs[1].Read)
	}
	if resp.Batch.Subs[2].Status != wire.StatusNotFound {
		t.Fatalf("missing object status = %v", resp.Batch.Subs[2].Status)
	}
}

func TestHandleBatchRejectsNesting(t *testing.T) {
	n := newTestNode()
	resp := n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindBatch,
		Batch: &wire.BatchRequest{Subs: []*wire.Request{
			{Kind: wire.KindBatch, Batch: &wire.BatchRequest{}},
		}},
	})
	if resp.Status != wire.StatusOK || resp.Batch.Subs[0].Status != wire.StatusError {
		t.Fatalf("nested batch = %+v", resp)
	}
}
