package dtm_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// A Block's own Read, the read-ahead and the blind refetch are one read round
// (of one object, of many, of the refused blind writes). These tests pin what
// the round decides the same way for all three: which answered objects are
// entered, which rounds hedge, and which holder a busy abort names.

// firstReadQuorum is the read quorum the first transaction of client
// clientSeed selects on an unsharded cluster: the runtime seeds a
// transaction's quorum selection with its client seed plus its sequence
// number, which starts at 1.
func firstReadQuorum(t *testing.T, tree *quorum.Tree, clientSeed int) []quorum.NodeID {
	t.Helper()
	q, err := tree.ReadQuorum(clientSeed+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) < 2 {
		t.Fatalf("client %d's first read quorum %v has one member; the test needs two", clientSeed, q)
	}
	return q
}

// TestReadRoundHalfProtectedRowIsBusy: a row one member of the read quorum
// holds protected while the other members never saw it is a first-ever write
// in flight. Neither read of it enters it as absent: the read-ahead leaves it
// out of the buffer, and the Block's own Read rolls back that Block alone at
// once, as a lock conflict naming the holder.
func TestReadRoundHalfProtectedRowIsBusy(t *testing.T) {
	c := newCluster(t, 4)
	seedOnes(c, "free")
	const client = 2
	holder := c.Nodes[firstReadQuorum(t, c.Tree, client)[0]].Store()
	if err := holder.Protect("held", "ghost", true); err != nil {
		t.Fatal(err)
	}
	rt := c.Runtime(client, dtm.Config{
		BackoffBase: 10 * time.Microsecond,
		BackoffMax:  50 * time.Microsecond,
		Seed:        1,
	})

	subRuns := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Prefetch("free", "held"); err != nil {
			return err
		}
		if n := rt.Metrics().PrefetchedObjects.Load(); n != 1 {
			return fmt.Errorf("%d objects buffered, want 1: the half-protected row is left out", n)
		}
		return tx.Sub(func(s *dtm.Tx) error {
			if subRuns++; subRuns == 2 {
				if err := holder.Unprotect("held", "ghost"); err != nil {
					return err
				}
			}
			_, err := s.Read("held")
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if subRuns != 2 || m.SubAborts != 1 || m.ParentAborts != 0 || m.AbortsLockConflict != 1 {
		t.Fatalf("sub ran %d times, sub aborts = %d, parent aborts = %d, lock-conflict aborts = %d; want 2, 1, 0, 1",
			subRuns, m.SubAborts, m.ParentAborts, m.AbortsLockConflict)
	}
	evs := rt.Forensics().Snapshot(10).Aborts
	if len(evs) != 1 || evs[0].Key != "held" || !evs[0].Partial || evs[0].ConflictingTxID != "ghost" {
		t.Fatalf("abort events %+v, want one partial abort on held naming ghost", evs)
	}
}

// TestBusyReadAbortsItsBlockAtOnce: a read that a member still answers busy
// after the server's own wait for the writer is not read again in place. It
// aborts its Block at once, and the Block's re-run is the retry: one read
// round of the object per try of the Block.
func TestBusyReadAbortsItsBlockAtOnce(t *testing.T) {
	c := newCluster(t, 4)
	seedOnes(c, "held")
	for _, n := range c.Nodes {
		if err := n.Store().Protect("held", "ghost", false); err != nil {
			t.Fatal(err)
		}
	}
	rt := c.Runtime(1, dtm.Config{
		BackoffBase: 10 * time.Microsecond,
		BackoffMax:  50 * time.Microsecond,
		Seed:        1,
	})

	subRuns := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		return tx.Sub(func(s *dtm.Tx) error {
			if subRuns++; subRuns == 2 {
				for _, n := range c.Nodes {
					if err := n.Store().Unprotect("held", "ghost"); err != nil {
						return err
					}
				}
			}
			_, err := s.Read("held")
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if subRuns != 2 || m.RemoteReads != 2 || m.SubAborts != 1 || m.ParentAborts != 0 || m.AbortsLockConflict != 1 {
		t.Fatalf("sub ran %d times in %d read rounds, sub aborts = %d, parent aborts = %d, lock-conflict aborts = %d; want 2, 2, 1, 0, 1",
			subRuns, m.RemoteReads, m.SubAborts, m.ParentAborts, m.AbortsLockConflict)
	}
}

// TestReadRoundHedgesASlowMember: an unsharded read-ahead asks one quorum
// group, so it is hedged as a Block's own read is. With one quorum member
// two seconds slow, the round completes on a spare replica long before the
// slow member answers, and the abandoned call raises no suspicion.
func TestReadRoundHedgesASlowMember(t *testing.T) {
	c := newCluster(t, 4)
	seedOnes(c, "a", "b", "c")
	const client = 2
	q := firstReadQuorum(t, c.Tree, client)
	slow := q[len(q)-1]
	c.Net.SetFault(func(to quorum.NodeID, _ *wire.Request) transport.Fault {
		if to == slow {
			return transport.Fault{Delay: 2 * time.Second}
		}
		return transport.Fault{}
	})
	rt := c.Runtime(client, dtm.Config{HedgeAfter: time.Millisecond, Seed: 1})

	// The transaction stops after the read-ahead: its commit would validate
	// against a read quorum unhedged, and wait for the slow member.
	measured := errors.New("measured")
	var took time.Duration
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		start := time.Now()
		if err := tx.Prefetch("a", "b", "c"); err != nil {
			return err
		}
		took = time.Since(start)
		return measured
	})
	if !errors.Is(err, measured) {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if took >= 500*time.Millisecond {
		t.Fatalf("read-ahead took %v with member %d two seconds slow; a hedged round ends far sooner", took, slow)
	}
	if m.PrefetchedObjects != 3 || m.HedgeWins == 0 || m.Suspicions != 0 {
		t.Fatalf("buffered %d objects, hedge wins %d, suspicions %d; want 3, > 0, 0",
			m.PrefetchedObjects, m.HedgeWins, m.Suspicions)
	}
}

// TestReadRoundHedgesToASpareOfItsLevel: on the paper's 10-node tree (levels
// {0}, {1,2,3}, {4..9}) a hedge goes to a spare of the slow member's own
// level, so the round completes however many nodes that level has. With one
// member of a level-1 or a level-2 quorum two seconds slow, the read-ahead
// ends long before it answers, on the spare's answer, with no suspicion.
func TestReadRoundHedgesToASpareOfItsLevel(t *testing.T) {
	for _, tc := range []struct {
		client, level int
	}{{3, 1}, {1, 2}} {
		c := newCluster(t, 10)
		seedOnes(c, "a", "b", "c")
		q := firstReadQuorum(t, c.Tree, tc.client)
		if !slices.Contains(c.Tree.Level(tc.level), q[0]) {
			t.Fatalf("client %d's first read quorum %v is not on level %d", tc.client, q, tc.level)
		}
		slow := q[len(q)-1]
		took, m := hedgedReadAhead(t, c, tc.client, slow, 2*time.Second)
		if took >= 500*time.Millisecond {
			t.Fatalf("level %d: read-ahead took %v with member %d of %v two seconds slow; a hedged round ends far sooner", tc.level, took, slow, q)
		}
		if m.PrefetchedObjects != 3 || m.HedgeWins == 0 || m.Suspicions != 0 {
			t.Fatalf("level %d: buffered %d objects, hedge wins %d, suspicions %d; want 3, > 0, 0",
				tc.level, m.PrefetchedObjects, m.HedgeWins, m.Suspicions)
		}
	}
}

// TestRootReadQuorumNeverHedges: a read quorum that is the root alone has no
// spare on its level, so a slow root is waited for and no hedge is sent.
func TestRootReadQuorumNeverHedges(t *testing.T) {
	c := newCluster(t, 10)
	seedOnes(c, "a", "b", "c")
	const client = 2
	if q, err := c.Tree.ReadQuorum(client+1, nil); err != nil || len(q) != 1 || q[0] != 0 {
		t.Fatalf("client %d's first read quorum is %v, %v; want the root alone", client, q, err)
	}
	_, m := hedgedReadAhead(t, c, client, 0, 200*time.Millisecond)
	if m.PrefetchedObjects != 3 || m.HedgesFired != 0 || m.Suspicions != 0 {
		t.Fatalf("buffered %d objects, hedges fired %d, suspicions %d; want 3, 0, 0",
			m.PrefetchedObjects, m.HedgesFired, m.Suspicions)
	}
}

// hedgedReadAhead runs one read-ahead of a, b and c from a client hedging
// after 1ms, with node slow delayed by delay, and reports how long the round
// took and the client's metrics. The transaction stops after the read-ahead:
// its commit would validate against a read quorum unhedged.
func hedgedReadAhead(t *testing.T, c *cluster.Cluster, client int, slow quorum.NodeID, delay time.Duration) (time.Duration, dtm.Snapshot) {
	t.Helper()
	c.Net.SetFault(func(to quorum.NodeID, _ *wire.Request) transport.Fault {
		if to == slow {
			return transport.Fault{Delay: delay}
		}
		return transport.Fault{}
	})
	rt := c.Runtime(client, dtm.Config{HedgeAfter: time.Millisecond, Seed: 1})
	measured := errors.New("measured")
	var took time.Duration
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		start := time.Now()
		if err := tx.Prefetch("a", "b", "c"); err != nil {
			return err
		}
		took = time.Since(start)
		return measured
	})
	if !errors.Is(err, measured) {
		t.Fatal(err)
	}
	return took, rt.Metrics().Snapshot()
}

// TestBlindRefetchBusyAbortNamesTheHolder: when the re-read of a refused
// blind write finds the row protected, the attempt aborts as a lock conflict
// attributed to the transaction the servers named, as a busy plain read is.
func TestBlindRefetchBusyAbortNamesTheHolder(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})
	rt, sc := scriptedRuntime(c, dtm.Config{MaxAttempts: 1})
	// The refused prepare has released its protections; a writer takes the
	// row before the re-read reaches any member.
	var once sync.Once
	sc.script = func(_ context.Context, _ quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if req.Kind == wire.KindRead && req.Read.Object == "x" {
			once.Do(func() {
				for _, n := range c.Nodes {
					if err := n.Store().Protect("x", "ghost", false); err != nil {
						t.Errorf("node %d: %v", n.ID(), err)
					}
				}
			})
		}
		return nil, nil
	}
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		return tx.Write("x", store.Int64(9))
	})
	if !errors.Is(err, dtm.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want the one attempt's abort to exhaust the attempts", err)
	}
	evs := rt.Forensics().Snapshot(10).Aborts
	if len(evs) != 1 || evs[0].Key != "x" || evs[0].Cause != forensics.CauseLockConflict || evs[0].ConflictingTxID != "ghost" {
		t.Fatalf("abort events %+v, want one lock-conflict abort on x naming ghost", evs)
	}
}
