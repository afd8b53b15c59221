package server

import (
	"context"
	"testing"
	"time"

	"qracn/internal/store"
	"qracn/internal/wire"
)

// patient lengthens n's read wait far past anything a loaded test host can
// stall, so a test that decides the writer while a read waits does not race
// the cap.
func patient(n *Node) *Node {
	n.readWaitCap = time.Minute
	return n
}

// prepareWriter has t1 vote yes on a prepare that writes a and b, so both are
// held exclusively until t1's decision.
func prepareWriter(t *testing.T, n *Node) (writes []store.WriteDesc) {
	t.Helper()
	writes = []store.WriteDesc{
		{ID: "a", Value: store.Int64(10), NewVersion: 2},
		{ID: "b", Value: store.Int64(20), NewVersion: 2},
	}
	if p := prepare(n, "t1", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}, {ID: "b", Version: 1}},
		Writes: writes,
	}); p.Status != wire.StatusOK || !p.Prepare.Vote {
		t.Fatalf("t1's prepare: %+v", p)
	}
	return writes
}

// commitWriter delivers t1's commit decision.
func commitWriter(n *Node, writes []store.WriteDesc) *wire.Response {
	return n.Handle(context.Background(), &wire.Request{Kind: wire.KindDecision, TxID: "t1",
		Decision: &wire.DecisionRequest{Commit: true, Writes: writes, Release: []store.ObjectID{"a", "b"}}})
}

// startRead sends req on a goroutine and returns once the node holds it
// waiting for a release.
func startRead(t *testing.T, n *Node, ctx context.Context, req *wire.Request) <-chan *wire.Response {
	t.Helper()
	done := make(chan *wire.Response, 1)
	go func() { done <- n.Handle(ctx, req) }()
	for deadline := time.Now().Add(5 * time.Second); !n.Store().Awaiting(); time.Sleep(50 * time.Microsecond) {
		select {
		case r := <-done:
			t.Fatalf("the read answered %+v before the writer decided", r)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the read never waited for the writer")
		}
	}
	return done
}

// answered returns the read's response, failing if it does not come soon.
func answered(t *testing.T, done <-chan *wire.Response) *wire.Response {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting read never answered")
		return nil
	}
}

// TestReadWaitsForThePreparedWriter: t2 read b at version 1, then reads a
// while t1 (which writes both) is prepared. The read waits for t1's commit,
// returns t1's version of a, and its validation names b, which t1 overwrote.
func TestReadWaitsForThePreparedWriter(t *testing.T) {
	n := patient(newTestNode())
	writes := prepareWriter(t, n)
	done := startRead(t, n, context.Background(), &wire.Request{
		Kind: wire.KindRead,
		TxID: "t2",
		Read: &wire.ReadRequest{Object: "a", Validate: []store.ReadDesc{{ID: "b", Version: 1}}},
	})
	if d := commitWriter(n, writes); d.Status != wire.StatusOK {
		t.Fatalf("t1's commit: %+v", d)
	}
	r := answered(t, done)
	if r.Status != wire.StatusOK || r.Read == nil || r.Read.Version != 2 || store.AsInt64(r.Read.Value) != 10 {
		t.Fatalf("read after the wait = %+v, want t1's a (10 at version 2)", r)
	}
	if len(r.Read.Invalid) != 1 || r.Read.Invalid[0] != "b" {
		t.Fatalf("Invalid = %v, want [b], which t1 overwrote", r.Read.Invalid)
	}
	if c := n.Stages().ReadWait.Count(); c != 1 {
		t.Fatalf("%d ReadWait records, want 1", c)
	}
	if c := n.Stages().ReadWaitCapped.Load(); c != 0 {
		t.Fatalf("%d capped waits, want 0", c)
	}
}

// TestWaitingReadTakesNoAdmissionSlot: with one admission slot, a read
// waiting for a writer does not hold it; another read is served at once.
func TestWaitingReadTakesNoAdmissionSlot(t *testing.T) {
	n := patient(NewNode(0, Config{StatsWindow: time.Hour, MaxInflight: 1, QueueDepth: 1}))
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(2), "c": store.Int64(3)})
	writes := prepareWriter(t, n)
	done := startRead(t, n, context.Background(), &wire.Request{
		Kind: wire.KindRead, TxID: "t2", Read: &wire.ReadRequest{Object: "a"},
	})
	if r := read(n, "t3", "c", nil); r.Status != wire.StatusOK {
		t.Fatalf("read of a free row beside a waiting one = %v, want OK", r.Status)
	}
	if !n.Store().Awaiting() {
		t.Fatal("the first read stopped waiting before the writer decided")
	}
	if d := commitWriter(n, writes); d.Status != wire.StatusOK {
		t.Fatalf("t1's commit: %+v", d)
	}
	if r := answered(t, done); r.Status != wire.StatusOK || r.Read.Version != 2 {
		t.Fatalf("waiting read = %+v, want OK at version 2", r)
	}
	if s := n.AdmissionStats(); s.Shed != 0 {
		t.Fatalf("admission shed %d requests, want 0", s.Shed)
	}
}

// TestCancelledContextEndsTheReadWait: a read whose caller gives up stops
// waiting and answers busy, as a read of a held row did before it waited.
func TestCancelledContextEndsTheReadWait(t *testing.T) {
	n := patient(newTestNode())
	prepareWriter(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	done := startRead(t, n, ctx, &wire.Request{
		Kind: wire.KindRead, TxID: "t2", Read: &wire.ReadRequest{Object: "a"},
	})
	cancel()
	if r := answered(t, done); r.Status != wire.StatusBusy || r.ConflictTx != "t1" {
		t.Fatalf("cancelled read = %+v, want busy, held by t1", r)
	}
	if c := n.Stages().ReadWaitCapped.Load(); c != 0 {
		t.Fatalf("the cancelled wait counted as capped (%d)", c)
	}
}

// TestUndecidedHolderCostsOneCappedWait: a holder that never decides costs
// the first reader at most the cap; once the hold is that old, the next read
// answers busy without waiting. The cap is lengthened to 50 ms so a stalled
// test host cannot age the hold past it before the first read.
func TestUndecidedHolderCostsOneCappedWait(t *testing.T) {
	n := newTestNode()
	n.readWaitCap = 50 * time.Millisecond
	prepareWriter(t, n)
	start := time.Now()
	if r := read(n, "t2", "a", nil); r.Status != wire.StatusBusy {
		t.Fatalf("first read = %v, want busy", r.Status)
	}
	if d := time.Since(start); d < n.readWaitCap/2 {
		t.Fatalf("first read answered after %v; it should have waited for the %v cap", d, n.readWaitCap)
	}
	if c := n.Stages().ReadWaitCapped.Load(); c != 1 {
		t.Fatalf("%d capped waits, want 1", c)
	}
	if r := read(n, "t3", "a", nil); r.Status != wire.StatusBusy {
		t.Fatalf("second read = %v, want busy", r.Status)
	}
	if c := n.Stages().ReadWait.Count(); c != 1 {
		t.Fatalf("%d ReadWait records, want 1: the second read must not wait", c)
	}
}

// TestSharedHoldsAndStatsQueriesDoNotWait: a row only read by a prepared
// transaction, and a stats query, are answered without waiting.
func TestSharedHoldsAndStatsQueriesDoNotWait(t *testing.T) {
	n := newTestNode()
	if p := prepare(n, "t1", &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}, {ID: "b", Version: 1}},
		Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(10), NewVersion: 2}},
	}); !p.Prepare.Vote {
		t.Fatalf("t1's prepare: %+v", p)
	}
	if r := read(n, "t2", "b", nil); r.Status != wire.StatusOK {
		t.Fatalf("read of a shared-held row = %v, want OK", r.Status)
	}
	if r := read(n, "t2", "", nil); r.Status != wire.StatusOK {
		t.Fatalf("stats query = %v, want OK", r.Status)
	}
	if c := n.Stages().ReadWait.Count(); c != 0 {
		t.Fatalf("%d ReadWait records, want 0", c)
	}
}
