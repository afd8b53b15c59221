package server

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/store"
	"qracn/internal/wal"
	"qracn/internal/wire"
)

// fakeClock is a manually-advanced time source for the gate's age logic.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (g *admissionGate) queueLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}

func TestGateAdmitsUpToLimitThenQueues(t *testing.T) {
	clk := &fakeClock{}
	g := newAdmissionGate(2, 4, 50*time.Millisecond, clk.now)

	rel1, shed := g.acquire(context.Background())
	if shed != nil {
		t.Fatalf("first acquire shed: %+v", shed)
	}
	rel2, shed := g.acquire(context.Background())
	if shed != nil {
		t.Fatalf("second acquire shed: %+v", shed)
	}

	got := make(chan *wire.Response, 1)
	go func() {
		rel, shed := g.acquire(context.Background())
		if rel != nil {
			rel()
		}
		got <- shed
	}()
	waitFor(t, "third acquire to queue", func() bool { return g.queueLen() == 1 })

	rel1()
	if shed := <-got; shed != nil {
		t.Fatalf("queued acquire shed after release: %+v", shed)
	}
	rel2()

	s := AdmissionStats{Admitted: g.admitted.Load(), Shed: g.shed.Load()}
	if s.Admitted != 3 || s.Shed != 0 {
		t.Fatalf("stats = %+v, want 3 admitted 0 shed", s)
	}
}

func TestGateShedsWhenQueueFull(t *testing.T) {
	clk := &fakeClock{}
	g := newAdmissionGate(1, 1, 50*time.Millisecond, clk.now)

	rel, shed := g.acquire(context.Background())
	if shed != nil {
		t.Fatalf("first acquire shed: %+v", shed)
	}
	queued := make(chan *wire.Response, 1)
	go func() {
		rel, shed := g.acquire(context.Background())
		if rel != nil {
			rel()
		}
		queued <- shed
	}()
	waitFor(t, "second acquire to queue", func() bool { return g.queueLen() == 1 })

	_, resp := g.acquire(context.Background())
	if resp == nil || resp.Status != wire.StatusOverloaded {
		t.Fatalf("overfull acquire = %+v, want StatusOverloaded", resp)
	}
	if !strings.Contains(resp.Detail, "queue full") {
		t.Fatalf("detail = %q", resp.Detail)
	}

	rel()
	if shed := <-queued; shed != nil {
		t.Fatalf("queued acquire shed: %+v", shed)
	}
	if g.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", g.shed.Load())
	}
}

// TestGateAdaptiveLIFO drives the standing-queue flip: once the head has
// waited past maxAge, a released slot goes to the NEWEST waiter and aged
// waiters are shed as explicit StatusOverloaded answers.
func TestGateAdaptiveLIFO(t *testing.T) {
	clk := &fakeClock{}
	g := newAdmissionGate(1, 10, 50*time.Millisecond, clk.now)

	rel, shed := g.acquire(context.Background())
	if shed != nil {
		t.Fatalf("first acquire shed: %+v", shed)
	}

	type outcome struct {
		shed *wire.Response
		rel  func()
	}
	oldDone := make(chan outcome, 1)
	go func() {
		rel, shed := g.acquire(context.Background())
		oldDone <- outcome{shed, rel}
	}()
	waitFor(t, "old waiter to queue", func() bool { return g.queueLen() == 1 })

	clk.advance(60 * time.Millisecond) // old waiter is now past maxAge

	newDone := make(chan outcome, 1)
	go func() {
		rel, shed := g.acquire(context.Background())
		newDone <- outcome{shed, rel}
	}()
	waitFor(t, "new waiter to queue", func() bool { return g.queueLen() == 2 })

	rel() // head aged out: LIFO handover + shed of the aged waiter

	o := <-oldDone
	if o.shed == nil || o.shed.Status != wire.StatusOverloaded {
		t.Fatalf("aged waiter = %+v, want StatusOverloaded", o.shed)
	}
	if !strings.Contains(o.shed.Detail, "standing queue") {
		t.Fatalf("aged waiter detail = %q", o.shed.Detail)
	}
	n := <-newDone
	if n.shed != nil {
		t.Fatalf("newest waiter shed: %+v", n.shed)
	}
	n.rel()
}

func TestGateCancelledWaiterIsShedAndSlotSurvives(t *testing.T) {
	clk := &fakeClock{}
	g := newAdmissionGate(1, 10, 50*time.Millisecond, clk.now)

	rel, shed := g.acquire(context.Background())
	if shed != nil {
		t.Fatalf("first acquire shed: %+v", shed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *wire.Response, 1)
	go func() {
		rel, shed := g.acquire(ctx)
		if rel != nil {
			rel()
		}
		done <- shed
	}()
	waitFor(t, "waiter to queue", func() bool { return g.queueLen() == 1 })
	cancel()
	resp := <-done
	if resp == nil || resp.Status != wire.StatusOverloaded {
		t.Fatalf("cancelled waiter = %+v, want StatusOverloaded", resp)
	}

	// The abandoned waiter must not leak a slot or a queue entry: the next
	// acquire after release must succeed immediately.
	rel()
	rel2, shed := g.acquire(context.Background())
	if shed != nil {
		t.Fatalf("acquire after cancel shed: %+v", shed)
	}
	rel2()
}

func TestAdmissionGateExemptKinds(t *testing.T) {
	for _, k := range []wire.Kind{wire.KindDecision, wire.KindTxStatus, wire.KindPing, wire.KindShardMap} {
		if admissionGated(k) {
			t.Errorf("kind %v is gated, want exempt", k)
		}
	}
	for _, k := range []wire.Kind{wire.KindRead, wire.KindPrepare, wire.KindBatch, wire.KindSync, wire.KindInspect} {
		if !admissionGated(k) {
			t.Errorf("kind %v is exempt, want gated", k)
		}
	}
	// Decisions and termination traffic must additionally survive stale
	// deadlines (an in-doubt transaction is never ended early by one).
	for _, k := range []wire.Kind{wire.KindDecision, wire.KindTxStatus, wire.KindPing} {
		if !deadlineExempt(k) {
			t.Errorf("kind %v rejects expired deadlines, want exempt", k)
		}
	}
	if deadlineExempt(wire.KindPrepare) || deadlineExempt(wire.KindRead) || deadlineExempt(wire.KindInspect) {
		t.Error("client work kinds must honor expired deadlines")
	}
}

// TestExpiredDeadlineRejectedBeforeLocksAndWAL is the acceptance check for
// deadline propagation: a request whose deadline passed before arrival is
// answered StatusOverloaded without taking protections or touching the
// commit log, while a 2PC decision with the same stale deadline still lands.
func TestExpiredDeadlineRejectedBeforeLocksAndWAL(t *testing.T) {
	clk := &fakeClock{}
	clk.ns.Store(int64(time.Hour)) // "now" well past any small deadline
	log, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	n := NewNode(0, Config{StatsWindow: time.Hour, Now: clk.now, WAL: log})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1)})

	expired := clk.now().Add(-time.Minute).UnixNano()
	resp := n.Handle(context.Background(), &wire.Request{
		Kind:     wire.KindPrepare,
		TxID:     "late",
		Deadline: expired,
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(2), NewVersion: 2}},
		},
	})
	if resp.Status != wire.StatusOverloaded {
		t.Fatalf("expired prepare = %v, want StatusOverloaded", resp.Status)
	}
	if got := n.AdmissionStats().Expired; got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
	if ws := log.Stats(); ws.Appends != 0 {
		t.Fatalf("expired prepare reached the WAL: %d appends", ws.Appends)
	}

	// No protection was taken: a fresh transaction prepares and commits the
	// same object without conflict.
	resp = n.Handle(context.Background(), &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "fresh",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "a", Version: 1}},
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(3), NewVersion: 2}},
		},
	})
	if resp.Status != wire.StatusOK || !resp.Prepare.Vote {
		t.Fatalf("fresh prepare after expired reject: %+v", resp)
	}

	// The decision carries the same stale deadline and must still be
	// processed — deadlines never end an in-doubt transaction early.
	resp = n.Handle(context.Background(), &wire.Request{
		Kind:     wire.KindDecision,
		TxID:     "fresh",
		Deadline: expired,
		Decision: &wire.DecisionRequest{
			Commit:  true,
			Writes:  []store.WriteDesc{{ID: "a", Value: store.Int64(3), NewVersion: 2}},
			Release: []store.ObjectID{"a"},
		},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("stale-deadline decision = %+v, want OK", resp)
	}
	if ws := log.Stats(); ws.Appends == 0 {
		t.Fatal("decision did not reach the WAL")
	}
	if got := n.AdmissionStats().Expired; got != 1 {
		t.Fatalf("Expired after decision = %d, want still 1", got)
	}
}

// TestGatedNodeShedsExcessLoad drives the gate through the Node.Handle path:
// with one slot and a minimal queue, concurrent reads are either served or
// answered StatusOverloaded — never silently dropped.
func TestGatedNodeShedsExcessLoad(t *testing.T) {
	n := NewNode(0, Config{StatsWindow: time.Hour, MaxInflight: 1, QueueDepth: 1})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1)})

	const total = 32
	results := make(chan wire.Status, total)
	for i := 0; i < total; i++ {
		go func() {
			resp := n.Handle(context.Background(), &wire.Request{
				Kind: wire.KindRead,
				TxID: "t",
				Read: &wire.ReadRequest{Object: "a"},
			})
			results <- resp.Status
		}()
	}
	var ok, overloaded, other int
	for i := 0; i < total; i++ {
		switch <-results {
		case wire.StatusOK:
			ok++
		case wire.StatusOverloaded:
			overloaded++
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("%d requests got a status other than OK/Overloaded", other)
	}
	if ok == 0 {
		t.Fatal("no request was served")
	}
	s := n.AdmissionStats()
	if int(s.Admitted) != ok || int(s.Shed) != overloaded {
		t.Fatalf("stats %+v disagree with observed ok=%d overloaded=%d", s, ok, overloaded)
	}
}
