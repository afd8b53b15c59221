package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wal"
	"qracn/internal/wire"
)

// autoNode opens (or reopens, replaying) node 0 over dir with automatic
// checkpoints due every `every` records (durableNode otherwise).
func autoNode(t *testing.T, dir string, every int) *Node {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	n := NewNode(0, Config{
		StatsWindow: time.Hour, WAL: l, SnapshotEvery: every,
		ResolveAfter: time.Nanosecond, TTLAbortAfter: time.Nanosecond,
	})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(2)})
	n.FinishRecovery(rec)
	return n
}

// commitWrite delivers a coordinator's commit decision writing one object.
func commitWrite(n *Node, tx string, id store.ObjectID, v int64, ver uint64) *wire.Response {
	return n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindDecision,
		TxID: tx,
		Decision: &wire.DecisionRequest{
			Commit: true,
			Writes: []store.WriteDesc{{ID: id, Value: store.Int64(v), NewVersion: ver}},
		},
	})
}

// holdCheckpoint makes n's log stop its next checkpoint at step until release
// is called; reached is closed once it is there.
func holdCheckpoint(n *Node, step wal.CheckpointStep) (reached <-chan struct{}, release func()) {
	at, rel := make(chan struct{}), make(chan struct{})
	var once sync.Once
	n.WAL().SetCheckpointHook(func(s wal.CheckpointStep) {
		if s == step {
			once.Do(func() { close(at); <-rel })
		}
	})
	return at, sync.OnceFunc(func() { close(rel) })
}

func awaitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// settle waits until n's automatic checkpoint, if any, has returned.
func settle(t *testing.T, n *Node) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); n.ckAuto.Load(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("automatic checkpoint never finished")
		}
	}
}

func snapshotsAndSegments(t *testing.T, dir string) []string {
	t.Helper()
	snaps, err := wal.Snapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return append(snaps, segs...)
}

// TestCrashDuringBackgroundCheckpoint crashes a node at each step of an
// automatic checkpoint, with a commit acked after the cut, and restarts it
// from the directory while the old checkpoint is still held there: every
// acked commit recovers, the in-doubt prepare comes back protected, the
// decided memory answers as before — and the old checkpoint, released,
// creates and removes nothing in the directory the restarted log replays.
func TestCrashDuringBackgroundCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		step wal.CheckpointStep
	}{
		{"after-cut", wal.StepCut},
		{"after-carry-over", wal.StepCarried},
		{"snapshot-write-held", wal.StepSnapshotWritten},
		{"renamed-not-compacted", wal.StepRenamed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := autoNode(t, dir, 8)
			q := []quorum.NodeID{0, 1}
			// Records: prepare + commit (2), prepare + abort, prepare: 6.
			if p := prepare(n, "tx-done", &wire.PrepareRequest{
				Reads:  []store.ReadDesc{{ID: "b", Version: 1}},
				Writes: []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}},
				Quorum: q,
			}); !p.Prepare.Vote {
				t.Fatalf("prepare tx-done: %+v", p)
			}
			if d := decide(n, "tx-done", true); d.Status != wire.StatusOK {
				t.Fatalf("commit tx-done: %+v", d)
			}
			if p := prepare(n, "tx-aborted", &wire.PrepareRequest{Reads: []store.ReadDesc{{ID: "a", Version: 1}}, Quorum: q}); !p.Prepare.Vote {
				t.Fatalf("prepare tx-aborted: %+v", p)
			}
			if d := decide(n, "tx-aborted", false); d.Status != wire.StatusOK {
				t.Fatalf("abort tx-aborted: %+v", d)
			}
			if p := prepare(n, "tx-live", &wire.PrepareRequest{
				Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
				Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}},
				Quorum: q,
			}); !p.Prepare.Vote {
				t.Fatalf("prepare tx-live: %+v", p)
			}

			reached, release := holdCheckpoint(n, tc.step)
			defer release()
			if d := commitWrite(n, "tx-trigger", "c", 3, 1); d.Status != wire.StatusOK { // records 7, 8: due
				t.Fatalf("commit tx-trigger: %+v", d)
			}
			awaitClosed(t, reached, "the checkpoint to reach its step")
			if d := commitWrite(n, "tx-after", "d", 4, 1); d.Status != wire.StatusOK {
				t.Fatalf("commit after the cut: %+v", d)
			}

			n.WAL().Crash()
			r := autoNode(t, dir, 1<<20)
			before := snapshotsAndSegments(t, dir)
			release()
			settle(t, n)
			if after := snapshotsAndSegments(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the crashed log's checkpoint changed the directory: %v → %v", before, after)
			}

			for _, w := range []struct {
				id  store.ObjectID
				v   int64
				ver uint64
			}{{"b", 9, 2}, {"c", 3, 1}, {"d", 4, 1}} {
				if o := r.Store().Snapshot()[w.id]; o.Version != w.ver || store.AsInt64(o.Value) != w.v {
					t.Errorf("%s recovered as %v@%d, want %d@%d", w.id, o.Value, o.Version, w.v, w.ver)
				}
			}
			if ids := r.InDoubt(); !reflect.DeepEqual(ids, []string{"tx-live"}) {
				t.Errorf("recovered in-doubt table = %v, want [tx-live]", ids)
			}
			if rd := read(r, "t2", "a", nil); rd.Status != wire.StatusBusy {
				t.Errorf("read of tx-live's written row after recovery = %v, want busy", rd.Status)
			}
			for tx, want := range map[string]wire.TxState{
				"tx-done": wire.TxStateCommitted, "tx-aborted": wire.TxStateAborted,
				"tx-trigger": wire.TxStateCommitted, "tx-after": wire.TxStateCommitted,
			} {
				st := r.Handle(context.Background(), &wire.Request{Kind: wire.KindTxStatus, TxID: tx})
				if st.Status != wire.StatusOK || st.TxStatus.State != want {
					t.Errorf("status of %s after recovery: %+v, want %v", tx, st, want)
				}
			}
		})
	}
}

// TestCommitDecisionDoesNotWaitForCheckpoint: with a checkpoint's snapshot
// write held, a commit decision on the same node completes — the checkpoint
// holds no lock a decision needs past its cut.
func TestCommitDecisionDoesNotWaitForCheckpoint(t *testing.T) {
	n := autoNode(t, t.TempDir(), 2)
	reached, release := holdCheckpoint(n, wal.StepSnapshotWritten)
	defer release()
	if d := commitWrite(n, "tx1", "c", 1, 1); d.Status != wire.StatusOK {
		t.Fatalf("commit tx1: %+v", d)
	}
	awaitClosed(t, reached, "the snapshot write")

	decided := make(chan struct{})
	go func() {
		if d := commitWrite(n, "tx2", "c", 2, 2); d.Status != wire.StatusOK {
			t.Errorf("commit tx2: %+v", d)
		}
		close(decided)
	}()
	awaitClosed(t, decided, "the commit decision behind a held snapshot write")
	if s := n.WAL().Stats().Snapshots; s != 0 {
		t.Fatalf("%d snapshots before the held checkpoint was released", s)
	}
	release()
	settle(t, n)
	if s := n.WAL().Stats(); s.Snapshots != 1 || s.CheckpointFailures != 0 {
		t.Fatalf("stats %+v, want the one checkpoint completed", s)
	}
	if c := n.Stages().CheckpointHold.Count(); c != 1 {
		t.Fatalf("CheckpointHold has %d samples, want 1", c)
	}
}

// TestExplicitCheckpointWaitsForAutomatic: Checkpoint called while an
// automatic checkpoint runs returns only after it, then takes its own — the
// two never interleave.
func TestExplicitCheckpointWaitsForAutomatic(t *testing.T) {
	n := autoNode(t, t.TempDir(), 2)
	var mu sync.Mutex
	var seen []wal.CheckpointStep
	reached, rel := make(chan struct{}), make(chan struct{})
	var once sync.Once
	n.WAL().SetCheckpointHook(func(s wal.CheckpointStep) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
		if s == wal.StepCarried {
			once.Do(func() { close(reached); <-rel })
		}
	})
	if d := commitWrite(n, "tx1", "c", 1, 1); d.Status != wire.StatusOK {
		t.Fatalf("commit: %+v", d)
	}
	awaitClosed(t, reached, "the automatic checkpoint")

	done := make(chan error, 1)
	go func() { done <- n.Checkpoint() }()
	select {
	case err := <-done:
		t.Fatalf("explicit Checkpoint returned (%v) while the automatic one was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(rel)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settle(t, n)
	all := []wal.CheckpointStep{wal.StepCut, wal.StepCarried, wal.StepSnapshotWritten, wal.StepRenamed}
	if want := append(all, all...); !reflect.DeepEqual(seen, want) {
		t.Fatalf("checkpoint steps %v, want two checkpoints one after the other %v", seen, want)
	}
	if s := n.WAL().Stats().Snapshots; s != 2 {
		t.Fatalf("%d snapshots, want 2", s)
	}
}

// TestFailedCheckpointWaitsForNextThreshold: a snapshot that cannot be put in
// place (a directory occupies its name) while appends keep working fails the
// checkpoint, which is counted, and the next attempt comes a whole trigger's
// worth of records later — not on every following decision.
func TestFailedCheckpointWaitsForNextThreshold(t *testing.T) {
	dir := t.TempDir()
	n := autoNode(t, dir, 10)
	for i := 2; i <= 64; i++ { // every snapshot index a cut can give
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("snap-%08d.db", i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(1); v <= 20; v++ { // two records each: 40
		if d := commitWrite(n, fmt.Sprint("tx", v), "k", int64(v), v); d.Status != wire.StatusOK {
			t.Fatalf("commit %d: %+v", v, d)
		}
		settle(t, n)
	}
	// Each attempt's cut rolled the log once; none compacted.
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if attempts := len(segs) - 1; attempts != 4 {
		t.Fatalf("%d checkpoint attempts over 40 records with SnapshotEvery 10, want 4", attempts)
	}
	if s := n.WAL().Stats(); s.CheckpointFailures != 4 || s.Snapshots != 0 {
		t.Fatalf("stats %+v, want 4 failures and no snapshot", s)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(names) != 0 {
		sort.Strings(names)
		t.Fatalf("failed checkpoints left temporary files: %v", names)
	}
}
