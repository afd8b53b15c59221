package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wal"
	"qracn/internal/wire"
)

// newDurableTestNode builds a node over a fresh WAL in its own directory
// (durableNode: no automatic snapshots, only explicit Checkpoint calls
// compact).
func newDurableTestNode(t *testing.T) (*Node, string) {
	t.Helper()
	dir := t.TempDir()
	return durableNode(t, 0, dir), dir
}

// TestCheckpointCarriesLive2PCState pins the crash-window fix: a checkpoint
// compacts the segments holding the node's prepare and decision records, so
// the live 2PC state (undecided yes votes AND the decided-outcome window)
// must be durable in the fresh segment before the old ones go — a crash at
// the very first instant after Checkpoint returns recovers both.
func TestCheckpointCarriesLive2PCState(t *testing.T) {
	n, dir := newDurableTestNode(t)
	ctx := context.Background()

	// One fully decided transaction...
	commit(t, n, "tx-done", []store.ReadDesc{{ID: "a", Version: 1}},
		[]store.WriteDesc{{ID: "a", Value: store.Int64(7), NewVersion: 2}})
	// ...and one yes vote still waiting for its coordinator.
	resp := n.Handle(ctx, &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "tx-live",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "b", Version: 1}},
			Writes: []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}},
			Quorum: []quorum.NodeID{0, 1, 2},
		},
	})
	if resp.Status != wire.StatusOK || !resp.Prepare.Vote {
		t.Fatalf("prepare: %+v", resp)
	}

	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := n.WAL().Stats().SegmentsRemoved; got == 0 {
		t.Fatal("checkpoint compacted no segments; the crash window under test never opened")
	}
	// Crash immediately: nothing was appended after the checkpoint, so
	// whatever it made durable is all a restart gets.
	n.WAL().Crash()

	l2, rec, err := wal.Open(dir, wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.InDoubt) != 1 || rec.InDoubt[0].TxID != "tx-live" {
		t.Fatalf("InDoubt = %+v, want exactly tx-live (compaction dropped the yes vote)", rec.InDoubt)
	}
	if len(rec.InDoubt[0].Quorum) != 3 {
		t.Fatalf("recovered prepare lost its quorum membership: %+v", rec.InDoubt[0])
	}
	if rec.Decided["tx-done"] != true {
		t.Fatalf("Decided = %v, want tx-done: true (compaction dropped the outcome)", rec.Decided)
	}

	// The restarted node answers a peer's termination query authoritatively
	// and still holds the recovered vote in-doubt.
	n2 := NewNode(0, Config{StatsWindow: time.Hour, WAL: l2, SnapshotEvery: -1})
	n2.FinishRecovery(rec)
	st := n2.Handle(ctx, &wire.Request{Kind: wire.KindTxStatus, TxID: "tx-done"})
	if st.Status != wire.StatusOK || st.TxStatus.State != wire.TxStateCommitted {
		t.Fatalf("status for carried decision: %+v", st)
	}
	if ids := n2.InDoubt(); len(ids) != 1 || ids[0] != "tx-live" {
		t.Fatalf("restarted in-doubt table = %v, want [tx-live]", ids)
	}
}

// TestTxStatusTombstoneRollsBackOnWALFailure pins the durability ordering of
// the abort promise: a promise whose decision record cannot be made durable
// must not be answered — and must leave no in-memory tombstone behind that a
// later query could quote as authoritative without durable backing.
func TestTxStatusTombstoneRollsBackOnWALFailure(t *testing.T) {
	n, _ := newDurableTestNode(t)
	ctx := context.Background()
	if err := n.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	resp := n.Handle(ctx, &wire.Request{Kind: wire.KindTxStatus, TxID: "ghost-tx"})
	if resp.Status != wire.StatusError {
		t.Fatalf("status with a dead WAL answered %+v, want error: the promise was never durable", resp)
	}
	n.idMu.Lock()
	_, known := n.decidedLocked("ghost-tx")
	_, inflight := n.tombstoning["ghost-tx"]
	n.idMu.Unlock()
	if known || inflight {
		t.Fatalf("failed append left tombstone state behind (known=%v inflight=%v)", known, inflight)
	}

	// With a working log the promise is re-made from scratch — and durably:
	// it survives a crash of the new log.
	dir2 := t.TempDir()
	l2, _, err := wal.Open(dir2, wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	n.wal = l2
	resp = n.Handle(ctx, &wire.Request{Kind: wire.KindTxStatus, TxID: "ghost-tx"})
	if resp.Status != wire.StatusOK || resp.TxStatus.State != wire.TxStateAborted {
		t.Fatalf("retry after WAL recovery: %+v", resp)
	}
	l2.Crash()
	l3, rec, err := wal.Open(dir2, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if commit, ok := rec.Decided["ghost-tx"]; !ok || commit {
		t.Fatalf("abort promise not durable across crash: Decided = %v", rec.Decided)
	}
}

// TestTxStatusUnknownAfterEviction: once the bounded decided memory has
// dropped outcomes, absence stops proving "never decided here" — an
// unrecorded transaction is answered Unknown (no abort promise, no
// tombstone), while recorded outcomes stay authoritative and prepares are
// still accepted.
func TestTxStatusUnknownAfterEviction(t *testing.T) {
	n := newTestNode()
	ctx := context.Background()

	// Fill two full generations plus one: the rotation that drops the first
	// generation marks the memory as lossy.
	n.idMu.Lock()
	for i := 0; i <= 2*decidedCap; i++ {
		n.setDecidedLocked(fmt.Sprintf("old-%d", i), i%2 == 0)
	}
	evicted := n.evictedDecided
	n.idMu.Unlock()
	if !evicted {
		t.Fatal("two full generation rotations did not mark the decided memory as lossy")
	}

	resp := n.Handle(ctx, &wire.Request{Kind: wire.KindTxStatus, TxID: "never-seen"})
	if resp.Status != wire.StatusOK || resp.TxStatus.State != wire.TxStateUnknown {
		t.Fatalf("unknown tx after eviction answered %+v, want Unknown (an abort promise could contradict an evicted commit)", resp)
	}
	// No tombstone was claimed: the same transaction can still prepare.
	prep := n.Handle(ctx, &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "never-seen",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}},
			Quorum: []quorum.NodeID{0, 1},
		},
	})
	if prep.Status != wire.StatusOK || !prep.Prepare.Vote {
		t.Fatalf("Unknown answer must not tombstone, but the prepare was refused: %+v", prep)
	}
	// Outcomes still in the retained window keep their authoritative answer.
	last := fmt.Sprintf("old-%d", 2*decidedCap)
	resp = n.Handle(ctx, &wire.Request{Kind: wire.KindTxStatus, TxID: last})
	if resp.Status != wire.StatusOK || resp.TxStatus.State != wire.TxStateCommitted {
		t.Fatalf("retained outcome answered %+v, want Committed", resp)
	}
}

// TestRecoveryReinstallsHoldsByMode: the prepare record stores no protection
// mode — a log written before modes existed replays the same way — so a
// restart must derive each hold's mode from the record itself: exclusive for
// the entries in its write-set (created when the write is the object's
// first), shared for the ones it only read.
func TestRecoveryReinstallsHoldsByMode(t *testing.T) {
	n, dir := newDurableTestNode(t)
	resp := prepare(n, "tx-live", &wire.PrepareRequest{
		Reads: []store.ReadDesc{{ID: "a", Version: 1}, {ID: "b", Version: 1}, {ID: "fresh", Version: 0}},
		Writes: []store.WriteDesc{
			{ID: "b", Value: store.Int64(9), NewVersion: 2},
			{ID: "fresh", Value: store.Int64(1), NewVersion: 1},
		},
		Quorum: []quorum.NodeID{0, 1, 2},
	})
	if resp.Status != wire.StatusOK || !resp.Prepare.Vote {
		t.Fatalf("prepare: %+v", resp)
	}
	// A cross-shard transaction's read-only part: no writes, still a vote.
	resp = prepare(n, "tx-ro", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
		Quorum: []quorum.NodeID{0, 5},
	})
	if resp.Status != wire.StatusOK || !resp.Prepare.Vote {
		t.Fatalf("read-only participant: %+v", resp)
	}
	if err := n.Checkpoint(); err != nil { // seeded rows reach the log through the snapshot
		t.Fatal(err)
	}
	n.WAL().Crash()

	l2, rec, err := wal.Open(dir, wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n2 := NewNode(0, Config{StatsWindow: time.Hour, WAL: l2, SnapshotEvery: -1})
	n2.FinishRecovery(rec)

	snap := n2.Store().Snapshot()
	if got := n2.InDoubt(); len(got) != 2 {
		t.Fatalf("recovered in-doubt table = %v, want tx-live and tx-ro", got)
	}
	if o := snap["a"]; o.Protected || len(o.SharedBy) != 2 {
		t.Fatalf("a (only read, twice): exclusive %q shared %v, want shared holds by tx-live and tx-ro", o.ProtectedBy, o.SharedBy)
	}
	for _, id := range []store.ObjectID{"b", "fresh"} {
		if o := snap[id]; o.ProtectedBy != "tx-live" || len(o.SharedBy) != 0 {
			t.Fatalf("%s (written): exclusive %q shared %v, want an exclusive hold by tx-live", id, o.ProtectedBy, o.SharedBy)
		}
	}
	if r := read(n2, "t2", "a", nil); r.Status != wire.StatusOK {
		t.Fatalf("read of the shared-held row after recovery = %v, want ok", r.Status)
	}
	if r := read(n2, "t2", "b", nil); r.Status != wire.StatusBusy {
		t.Fatalf("read of the exclusively held row after recovery = %v, want busy", r.Status)
	}

	// The decisions release both modes.
	for _, tx := range []string{"tx-live", "tx-ro"} {
		n2.Handle(context.Background(), &wire.Request{
			Kind:     wire.KindDecision,
			TxID:     tx,
			Decision: &wire.DecisionRequest{Commit: false, Release: []store.ObjectID{"a", "b", "fresh"}},
		})
	}
	for id, o := range n2.Store().Snapshot() {
		if o.Protected || len(o.SharedBy) > 0 {
			t.Fatalf("%s still held after the decisions: exclusive %q shared %v", id, o.ProtectedBy, o.SharedBy)
		}
	}
}
