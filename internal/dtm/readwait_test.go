package dtm_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// TestDoomedReadWaitsForTheCommit is the doomed-read schedule: t2 reads x
// after t1, which writes x, has collected its yes votes and before t1's
// commit decision reaches the members. The members that hold x for t1 wait
// for the decision, so t2 reads t1's x and commits at its first attempt. If
// they answered busy instead, the members outside t1's write quorum would hand
// t2 the x t1 replaces, and t2's prepare would be refused: one abort.
func TestDoomedReadWaitsForTheCommit(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
	ctx := context.Background()

	// The first commit decision sent is t1's: signal that t1 has voted, and
	// hold each of t1's decisions back until a member is holding t2's read
	// for it (or, where reads do not wait, for a while). t2's prepares are
	// held back long enough to meet no member t1's decision has yet to
	// reach: only the read is under test.
	const hold, prepareDelay = 100 * time.Millisecond, 20 * time.Millisecond
	var sawWait atomic.Bool // latched: the woken read no longer shows
	readWaiting := func() bool {
		for _, n := range c.Nodes {
			if n.Store().Awaiting() {
				sawWait.Store(true)
			}
		}
		return sawWait.Load()
	}
	var t1ID atomic.Pointer[string]
	voted := make(chan struct{})
	c.Net.SetFault(func(to quorum.NodeID, req *wire.Request) transport.Fault {
		t1 := t1ID.Load()
		switch {
		case req.Kind == wire.KindPrepare && t1 != nil && *t1 != req.TxID:
			return transport.Fault{Delay: prepareDelay}
		case req.Kind != wire.KindDecision || req.Decision == nil || !req.Decision.Commit:
			return transport.Fault{}
		case t1 == nil:
			id := strings.Clone(req.TxID)
			if t1ID.CompareAndSwap(nil, &id) {
				close(voted)
			}
		case *t1 != req.TxID:
			return transport.Fault{}
		}
		for start := time.Now(); !readWaiting() && time.Since(start) < hold; {
			time.Sleep(20 * time.Microsecond)
		}
		return transport.Fault{}
	})

	increment := func(rt *dtm.Runtime, runs *atomic.Int32) error {
		return rt.Atomic(ctx, func(tx *dtm.Tx) error {
			runs.Add(1)
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			return tx.Write("x", store.Int64(store.AsInt64(v)+1))
		})
	}
	var t1Runs, t2Runs atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	var t1Err error
	go func() {
		defer wg.Done()
		t1Err = increment(rtFor(c, 1), &t1Runs)
	}()
	<-voted
	// Client 3 reads x from two of the three level-1 nodes, one of which is
	// outside client 1's write quorum, so some member of t2's read quorum
	// holds the version t1 replaces.
	if err := increment(rtFor(c, 3), &t2Runs); err != nil {
		t.Fatalf("t2: %v", err)
	}
	wg.Wait()
	if t1Err != nil {
		t.Fatalf("t1: %v", t1Err)
	}
	if n := t2Runs.Load(); n != 1 {
		t.Fatalf("t2 ran %d attempts, want 1: its read must wait for t1's decision", n)
	}
	var got int64
	if err := rtFor(c, 4).Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("x")
		got = store.AsInt64(v)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("x = %d, want 2", got)
	}
}
