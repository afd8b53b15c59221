package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wal"
	"qracn/internal/wire"
)

// never is a linger bound no test outlives: an unforced record reaches the
// disk only through a forced append, a checkpoint or Close, so what a Crash
// loses is decided by the test, not by a timer.
const never = time.Hour

// directClient delivers a node's termination queries to in-process peers.
type directClient map[quorum.NodeID]*Node

func (c directClient) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	n, ok := c[to]
	if !ok {
		return nil, errors.New("peer unreachable")
	}
	return n.Handle(ctx, req), nil
}

// durableNode opens (or reopens, replaying) node id over dir. Both
// termination deadlines have already passed whenever the resolver looks.
func durableNode(t *testing.T, id quorum.NodeID, dir string) *Node {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	n := NewNode(id, Config{
		StatsWindow: time.Hour, WAL: l, SnapshotEvery: -1,
		ResolveAfter: time.Nanosecond, TTLAbortAfter: time.Nanosecond,
	})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(2)})
	n.FinishRecovery(rec)
	return n
}

// paTx is the transaction every test here votes on: it writes b, only reads a.
var paTx = &wire.PrepareRequest{
	Reads:  []store.ReadDesc{{ID: "a", Version: 1}, {ID: "b", Version: 1}},
	Writes: []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}},
	Quorum: []quorum.NodeID{0, 1},
}

func decide(n *Node, tx string, commit bool) *wire.Response {
	d := &wire.DecisionRequest{Commit: commit, Release: []store.ObjectID{"a", "b"}}
	if commit {
		d.Writes = paTx.Writes
	}
	return n.Handle(context.Background(), &wire.Request{Kind: wire.KindDecision, TxID: tx, Decision: d})
}

func assertNoHolds(t *testing.T, n *Node) {
	t.Helper()
	for id, o := range n.Store().Snapshot() {
		if o.Protected || len(o.SharedBy) > 0 {
			t.Fatalf("node %d: %s still held: exclusive %q shared %v", n.ID(), id, o.ProtectedBy, o.SharedBy)
		}
	}
	if ids := n.InDoubt(); len(ids) != 0 {
		t.Fatalf("node %d: in-doubt table = %v, want empty", n.ID(), ids)
	}
}

// voteThenAbort takes the node through a yes vote and the coordinator's
// abort, asserting the abort paid no fsync and released at once.
func voteThenAbort(t *testing.T, n *Node, tx string) {
	t.Helper()
	if p := prepare(n, tx, paTx); p.Status != wire.StatusOK || !p.Prepare.Vote {
		t.Fatalf("prepare: %+v", p)
	}
	before := n.WAL().Stats()
	if d := decide(n, tx, false); d.Status != wire.StatusOK {
		t.Fatalf("abort decision: %+v", d)
	}
	after := n.WAL().Stats()
	if after.Fsyncs != before.Fsyncs || after.Appends != before.Appends+1 {
		t.Fatalf("abort decision: fsyncs %d → %d, appends %d → %d; want the record staged and not forced",
			before.Fsyncs, after.Fsyncs, before.Appends, after.Appends)
	}
	assertNoHolds(t, n)
}

// crashRestart loses whatever node n had only staged and replays the rest.
func crashRestart(t *testing.T, n *Node) *Node {
	t.Helper()
	n.WAL().Crash()
	return durableNode(t, n.ID(), n.WAL().Dir())
}

// TestPresumedAbortLostRecordResolvedByPeer: a yes-voter acks an abort,
// crashes before the unforced record syncs, and restarts with the prepare
// in-doubt and its protections re-armed. A peer that kept the outcome answers
// Aborted and the protections are released.
func TestPresumedAbortLostRecordResolvedByPeer(t *testing.T) {
	a := durableNode(t, 0, t.TempDir())
	b := durableNode(t, 1, t.TempDir())
	voteThenAbort(t, a, "tx")
	voteThenAbort(t, b, "tx")

	a = crashRestart(t, a)
	if ids := a.InDoubt(); len(ids) != 1 || ids[0] != "tx" {
		t.Fatalf("restarted in-doubt table = %v, want [tx]: the abort record was never synced", ids)
	}
	if r := read(a, "t2", "b", nil); r.Status != wire.StatusBusy {
		t.Fatalf("read of the re-armed row = %v, want busy", r.Status)
	}
	if got := a.ResolveNow(context.Background(), directClient{1: b}); got != 1 {
		t.Fatalf("ResolveNow resolved %d entries, want 1", got)
	}
	if s := a.ResolutionStats(); s.PeerAborts != 1 || s.TTLAborts != 0 {
		t.Fatalf("resolution stats %+v, want one peer abort", s)
	}
	assertNoHolds(t, a)
	if _, ver, _ := a.Store().Get("b"); ver != 1 {
		t.Fatalf("b at version %d after the abort, want 1", ver)
	}
}

// TestPresumedAbortLostEverywhereTTLAborts: every participant lost the abort
// record, so every answer is in-doubt; the complete round plus the TTL
// aborts, and the outcome is forwarded to the peer.
func TestPresumedAbortLostEverywhereTTLAborts(t *testing.T) {
	a := durableNode(t, 0, t.TempDir())
	b := durableNode(t, 1, t.TempDir())
	voteThenAbort(t, a, "tx")
	voteThenAbort(t, b, "tx")
	a, b = crashRestart(t, a), crashRestart(t, b)
	if len(a.InDoubt()) != 1 || len(b.InDoubt()) != 1 {
		t.Fatalf("in-doubt after restart: a %v, b %v; want tx on both", a.InDoubt(), b.InDoubt())
	}

	// With the peer unreachable the round is incomplete: no TTL abort.
	if got := a.ResolveNow(context.Background(), directClient{}); got != 0 {
		t.Fatalf("resolved %d entries on an incomplete round", got)
	}
	if got := a.ResolveNow(context.Background(), directClient{1: b}); got != 1 {
		t.Fatalf("ResolveNow resolved %d entries, want 1", got)
	}
	if s := a.ResolutionStats(); s.TTLAborts != 1 || s.ResolveForwards != 1 {
		t.Fatalf("resolution stats %+v, want one TTL abort forwarded to the peer", s)
	}
	if s := b.ResolutionStats(); s.PeerAborts != 1 {
		t.Fatalf("peer's resolution stats %+v, want the forwarded abort", s)
	}
	assertNoHolds(t, a)
	assertNoHolds(t, b)
}

// TestPresumedAbortRacesItsOwnPrepare: the abort decision lands while the
// prepare's entry is registered and its fsync still in flight. The decision
// neither waits for that fsync nor leaves anything for the late vote to
// strand.
func TestPresumedAbortRacesItsOwnPrepare(t *testing.T) {
	dir := t.TempDir()
	n := durableNode(t, 0, dir)
	n.WAL().SetSyncDelay(100 * time.Millisecond)

	voted := make(chan *wire.Response, 1)
	go func() { voted <- prepare(n, "tx", paTx) }()
	deadline := time.Now().Add(10 * time.Second)
	for len(n.InDoubt()) == 0 || n.WAL().Stats().Appends == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prepare never staged its record")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if d := decide(n, "tx", false); d.Status != wire.StatusOK {
		t.Fatalf("abort decision: %+v", d)
	}
	if f := n.WAL().Stats().Fsyncs; f != 0 {
		t.Fatalf("abort decision returned after %d fsyncs; it must not wait for the prepare's", f)
	}
	assertNoHolds(t, n)
	if p := <-voted; p.Status != wire.StatusOK || !p.Prepare.Vote {
		t.Fatalf("prepare: %+v (the late yes is harmless: its coordinator already decided)", p)
	}
	assertNoHolds(t, n)

	// Cleanly closed, the log holds prepare then abort: nothing in doubt.
	n.WAL().SetSyncDelay(0)
	if err := n.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	assertNoHolds(t, durableNode(t, 0, dir))
}

// TestPresumedAbortCheckpointCarriesOutcome: a checkpoint between the
// unforced stage and its sync still carries the decided outcome across the
// compaction.
func TestPresumedAbortCheckpointCarriesOutcome(t *testing.T) {
	n := durableNode(t, 0, t.TempDir())
	voteThenAbort(t, n, "tx")
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n = crashRestart(t, n)
	assertNoHolds(t, n)
	st := n.Handle(context.Background(), &wire.Request{Kind: wire.KindTxStatus, TxID: "tx"})
	if st.Status != wire.StatusOK || st.TxStatus.State != wire.TxStateAborted {
		t.Fatalf("status after checkpoint + crash: %+v, want aborted", st)
	}
}

// TestAbortReleasesWhenTheLogFails: a node whose disk is gone has still been
// told to let the rows go — release first, report second.
func TestAbortReleasesWhenTheLogFails(t *testing.T) {
	n := durableNode(t, 0, t.TempDir())
	if p := prepare(n, "tx", paTx); !p.Prepare.Vote {
		t.Fatalf("prepare: %+v", p)
	}
	n.WAL().Crash()
	if d := decide(n, "tx", false); d.Status != wire.StatusError {
		t.Fatalf("abort over a dead log answered %+v, want the append error reported", d)
	}
	assertNoHolds(t, n)
	if d := decide(n, "tx", false); d.Status != wire.StatusOK {
		t.Fatalf("retried abort: %+v, want OK (outcome already recorded)", d)
	}
}

// TestStaleResolverPassDoesNotReprotect: a resolver pass that examined an
// entry before its decision arrived must not re-install the protections the
// decision then released.
func TestStaleResolverPassDoesNotReprotect(t *testing.T) {
	n := newTestNode()
	if p := prepare(n, "tx", paTx); !p.Prepare.Vote {
		t.Fatalf("prepare: %+v", p)
	}
	n.idMu.Lock()
	stale := n.inDoubt["tx"]
	n.idMu.Unlock()
	if d := decide(n, "tx", false); d.Status != wire.StatusOK {
		t.Fatalf("abort decision: %+v", d)
	}
	if n.resolveOne(context.Background(), directClient{}, stale, time.Now(), new(sync.WaitGroup)) {
		t.Fatal("a retired entry was resolved again")
	}
	assertNoHolds(t, n)
}

// TestFsyncWaitCoversPrepareAndCommit: the prepare record's wait and the
// commit decision's land in the one histogram; an abort adds nothing.
func TestFsyncWaitCoversPrepareAndCommit(t *testing.T) {
	n := durableNode(t, 0, t.TempDir())
	voteThenAbort(t, n, "tx-aborted")
	if got := n.Stages().FsyncWait.Count(); got != 1 {
		t.Fatalf("FsyncWait samples after prepare + abort = %d, want 1 (the prepare's)", got)
	}
	if p := prepare(n, "tx-committed", paTx); !p.Prepare.Vote {
		t.Fatalf("prepare: %+v", p)
	}
	if d := decide(n, "tx-committed", true); d.Status != wire.StatusOK {
		t.Fatalf("commit decision: %+v", d)
	}
	if got := n.Stages().FsyncWait.Count(); got != 3 {
		t.Fatalf("FsyncWait samples = %d, want 3 (two prepares, one commit)", got)
	}
}

// TestRepairIsUnforced: a read-repair push is acked without an fsync and
// still reaches the disk with the next sync.
func TestRepairIsUnforced(t *testing.T) {
	dir := t.TempDir()
	n := durableNode(t, 0, dir)
	resp := n.Handle(context.Background(), &wire.Request{
		Kind:   wire.KindRepair,
		Repair: &wire.RepairRequest{Object: "a", Value: store.Int64(5), Version: 4},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("repair: %+v", resp)
	}
	if s := n.WAL().Stats(); s.Fsyncs != 0 || s.Appends != 1 {
		t.Fatalf("repair: %d fsyncs, %d appends; want staged, not forced", s.Fsyncs, s.Appends)
	}
	if err := n.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if _, ver, _ := durableNode(t, 0, dir).Store().Get("a"); ver != 4 {
		t.Fatalf("a recovered at version %d, want the repaired 4", ver)
	}
}
