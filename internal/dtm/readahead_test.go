package dtm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// The read-ahead tests are deterministic: a second runtime commits between
// two steps of the transaction under test, so every conflict lands exactly
// where the test puts it.

// overwrite commits id = v through another client.
func overwrite(rt *dtm.Runtime, id store.ObjectID, v int64) error {
	err := rt.Atomic(context.Background(), func(o *dtm.Tx) error {
		return o.Write(id, store.Int64(v))
	})
	if err != nil {
		return fmt.Errorf("interfering commit: %v", err)
	}
	return nil
}

// remoteReads counts the quorum read rounds fn costs.
func remoteReads(rt *dtm.Runtime, fn func() error) (uint64, error) {
	before := rt.Metrics().RemoteReads.Load()
	err := fn()
	return rt.Metrics().RemoteReads.Load() - before, err
}

func seedOnes(c *cluster.Cluster, ids ...store.ObjectID) {
	objs := make(map[store.ObjectID]store.Value, len(ids))
	for _, id := range ids {
		objs[id] = store.Int64(1)
	}
	c.Seed(objs)
}

// An entry consumed by a Sub belongs to that Sub like a plain remote read:
// overwritten before the Sub's next remote read, it rolls back the Sub alone.
// The retry reads it remotely and sees the new version; the parent's history
// and the rest of the buffer survive.
func TestReadAheadConsumedEntryPartialAbort(t *testing.T) {
	c := newCluster(t, 10)
	seedOnes(c, "p", "hot", "tail", "spare")
	rt, other := rtFor(c, 1), rtFor(c, 2)

	outerRuns, subRuns := 0, 0
	var hotSeen []int64
	var hotRounds, spareRounds []uint64
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		outerRuns++
		if err := tx.Prefetch("p", "hot", "spare"); err != nil {
			return err
		}
		if _, err := tx.Read("p"); err != nil { // parent history, from the buffer
			return err
		}
		if err := tx.Sub(func(s *dtm.Tx) error {
			subRuns++
			n, err := remoteReads(rt, func() error {
				v, err := s.Read("hot")
				hotSeen = append(hotSeen, store.AsInt64(v))
				return err
			})
			if err != nil {
				return err
			}
			hotRounds = append(hotRounds, n)
			if subRuns == 1 {
				if err := overwrite(other, "hot", 2); err != nil {
					return err
				}
			}
			// Validation on this read names "hot", first accessed here.
			_, err = s.Read("tail")
			return err
		}); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			n, err := remoteReads(rt, func() error {
				_, err := s.Read("spare")
				return err
			})
			spareRounds = append(spareRounds, n)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if outerRuns != 1 || subRuns != 2 {
		t.Fatalf("outer ran %d times, sub %d; want 1 and 2 (partial rollback)", outerRuns, subRuns)
	}
	if m := rt.Metrics().Snapshot(); m.SubAborts != 1 || m.ParentAborts != 0 {
		t.Fatalf("sub aborts = %d, parent aborts = %d; want 1 and 0", m.SubAborts, m.ParentAborts)
	}
	if fmt.Sprint(hotSeen) != "[1 2]" || fmt.Sprint(hotRounds) != "[0 1]" {
		t.Fatalf("hot = %v over %v rounds; want the buffered 1 for free, then 2 from a remote read", hotSeen, hotRounds)
	}
	if fmt.Sprint(spareRounds) != "[0]" {
		t.Fatalf("spare cost %v rounds; want none: the buffer outlives the sibling's rollback", spareRounds)
	}
}

// An entry nobody consumed yet that is overwritten before the next remote
// interaction is dropped from the buffer: no body ever sees the stale value
// and nothing aborts.
func TestReadAheadStaleUnconsumedEntryIsDropped(t *testing.T) {
	c := newCluster(t, 10)
	seedOnes(c, "a", "stale", "x")
	rt, other := rtFor(c, 1), rtFor(c, 2)

	runs := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		runs++
		if err := tx.Prefetch("a", "stale"); err != nil {
			return err
		}
		if err := overwrite(other, "stale", 2); err != nil {
			return err
		}
		if _, err := tx.Read("x"); err != nil { // remote: validation names "stale"
			return err
		}
		if n, err := remoteReads(rt, func() error { _, err := tx.Read("a"); return err }); err != nil || n != 0 {
			return fmt.Errorf("read of a: %d rounds, err %v; want the buffered entry", n, err)
		}
		var v store.Value
		n, err := remoteReads(rt, func() (err error) { v, err = tx.Read("stale"); return err })
		if err != nil {
			return err
		}
		if n != 1 || store.AsInt64(v) != 2 {
			return fmt.Errorf("stale = %v over %d rounds; want 2 from a fresh remote read", v, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics().Snapshot(); runs != 1 || m.SubAborts != 0 || m.ParentAborts != 0 {
		t.Fatalf("runs = %d, sub aborts = %d, parent aborts = %d; want 1, 0, 0", runs, m.SubAborts, m.ParentAborts)
	}
}

// An entry consumed by an earlier Sub is parent history once that Sub merges:
// invalidated during a later Sub, it restarts the whole transaction.
func TestReadAheadEntryOfMergedSubIsFullAbort(t *testing.T) {
	c := newCluster(t, 10)
	seedOnes(c, "j", "k", "far")
	rt, other := rtFor(c, 1), rtFor(c, 2)

	outerRuns := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		outerRuns++
		if err := tx.Prefetch("j", "k"); err != nil {
			return err
		}
		if err := tx.Sub(func(s *dtm.Tx) error { _, err := s.Read("j"); return err }); err != nil {
			return err
		}
		if outerRuns == 1 {
			if err := overwrite(other, "j", 2); err != nil {
				return err
			}
		}
		return tx.Sub(func(s *dtm.Tx) error {
			if _, err := s.Read("k"); err != nil { // from the buffer
				return err
			}
			_, err := s.Read("far") // remote: validation names "j"
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics().Snapshot(); outerRuns != 2 || m.ParentAborts != 1 || m.SubAborts != 0 {
		t.Fatalf("outer ran %d times, parent aborts = %d, sub aborts = %d; want 2, 1, 0", outerRuns, m.ParentAborts, m.SubAborts)
	}
}

// An object busy during the read-ahead round is not buffered: the Block that
// wants it reads it itself, and a busy abort there rolls back that Block only.
func TestReadAheadLeavesBusyObjectToItsBlock(t *testing.T) {
	c := newCluster(t, 4)
	seedOnes(c, "free", "held")
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

	outerRuns, subRuns := 0, 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		outerRuns++
		if err := tx.Prefetch("free", "held"); err != nil {
			return err
		}
		if n := rt.Metrics().PrefetchedObjects.Load(); n != 1 {
			return fmt.Errorf("%d objects buffered, want 1: the busy one is left out", n)
		}
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
	if m := rt.Metrics().Snapshot(); outerRuns != 1 || subRuns != 2 || m.SubAborts != 1 || m.ParentAborts != 0 {
		t.Fatalf("outer ran %d times, sub %d, sub aborts = %d, parent aborts = %d; want 1, 2, 1, 0",
			outerRuns, subRuns, m.SubAborts, m.ParentAborts)
	}
}

// prepareLog records the read sets of the prepares a runtime sends.
type prepareLog struct {
	transport.Client
	mu    sync.Mutex
	reads [][]store.ReadDesc
}

func (l *prepareLog) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	if req.Kind == wire.KindPrepare {
		l.mu.Lock()
		l.reads = append(l.reads, req.Prepare.Reads)
		l.mu.Unlock()
	}
	return l.Client.Call(ctx, to, req)
}

// A buffered entry nobody consumed never enters a read set, so the servers
// neither validate nor protect it at commit.
func TestReadAheadUnconsumedEntryStaysOutOfPrepare(t *testing.T) {
	c := newCluster(t, 10)
	seedOnes(c, "used", "unused")
	log := &prepareLog{Client: c.Net}
	rt := dtm.New(dtm.Config{Tree: c.Tree, Client: log, Alive: c.Net.Alive, ClientSeed: 1, Seed: 2})

	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Prefetch("used", "unused"); err != nil {
			return err
		}
		v, err := tx.Read("used")
		if err != nil {
			return err
		}
		return tx.Write("used", store.Int64(store.AsInt64(v)+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.reads) == 0 {
		t.Fatal("no prepare was sent")
	}
	for _, reads := range log.reads {
		if len(reads) != 1 || reads[0].ID != "used" {
			t.Fatalf("prepare validates %v, want only the consumed object", reads)
		}
	}
}

// A read-ahead over several quorum groups is one concurrent round, and a
// group that loses a member fails over alone: the groups that answered are
// not asked again.
func TestReadAheadMultiGroupRoundAndFailover(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 16, Shards: 4, StatsWindow: time.Hour})
	t.Cleanup(c.Close)
	var ids []store.ObjectID
	groups := map[int]bool{}
	for i := 0; i < 12; i++ {
		id := store.ID("row", i)
		ids = append(ids, id)
		groups[c.Shards.ShardFor(id)] = true
	}
	if len(groups) < 3 {
		t.Fatalf("test objects span %d groups, want several", len(groups))
	}
	seedOnes(c, ids...)

	readAll := func(rt *dtm.Runtime) dtm.Snapshot {
		t.Helper()
		err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
			if err := tx.Prefetch(ids...); err != nil {
				return err
			}
			n, err := remoteReads(rt, func() error {
				for _, id := range ids {
					if _, err := tx.Read(id); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil && n != 0 {
				err = fmt.Errorf("%d reads went remote after the read-ahead", n)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Metrics().Snapshot()
	}

	if m := readAll(c.Runtime(1, dtm.Config{Seed: 1})); m.RemoteReads != 1 || m.BatchReads != 1 || m.PrefetchedObjects != 12 {
		t.Fatalf("rounds = %d, batched = %d, objects = %d; want 1, 1, 12", m.RemoteReads, m.BatchReads, m.PrefetchedObjects)
	}

	// One member of one group drops its first read: that group alone is
	// asked again, against a quorum without the member.
	drop := &dropFirstRead{Client: c.Net, in: c.Shards.GroupOf(ids[0])}
	m := readAll(dtm.New(dtm.Config{Shards: c.Shards, Client: drop, Alive: c.Net.Alive, ClientSeed: 2, Seed: 3}))
	if m.Failovers != 1 || m.RemoteReads != 2 || m.BatchReads != 2 {
		t.Fatalf("failovers = %d, rounds = %d, batched = %d; want 1, 2, 2", m.Failovers, m.RemoteReads, m.BatchReads)
	}
	if m.PrefetchedObjects != 12 {
		t.Fatalf("objects = %d, want 12: each buffered once, the answered groups not re-fetched", m.PrefetchedObjects)
	}
	if drop.reads[drop.dropped] != 1 {
		t.Fatalf("the member that failed was asked %d times, want once", drop.reads[drop.dropped])
	}
	for n, k := range drop.reads {
		if !drop.in.Contains(n) && k != 1 {
			t.Fatalf("node %d of a group that answered got %d reads, want 1", n, k)
		}
	}
	// Each group was sent one read naming every object it owns (its members
	// share the request), and the group that failed over one more.
	if len(drop.sent) != len(groups)+1 {
		t.Fatalf("%d distinct reads for %d groups and one failover", len(drop.sent), len(groups))
	}
	for req := range drop.sent {
		g, named := c.Shards.GroupOf(req.Read.Object), 1+len(req.Read.More)
		for _, id := range req.Read.More {
			if c.Shards.GroupOf(id) != g {
				t.Fatalf("one read names %s and %s of two groups", req.Read.Object, id)
			}
		}
		want := 0
		for _, id := range ids {
			if c.Shards.GroupOf(id) == g {
				want++
			}
		}
		if named != want {
			t.Fatalf("a read names %d objects of a group owning %d of them", named, want)
		}
	}
}

// dropFirstRead fails the first read sent to any member of one group and
// counts the reads every node is sent.
type dropFirstRead struct {
	transport.Client
	in      *shard.Group
	mu      sync.Mutex
	dropped quorum.NodeID
	reads   map[quorum.NodeID]int
	sent    map[*wire.Request]bool
}

func (d *dropFirstRead) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	if req.Kind == wire.KindRead {
		d.mu.Lock()
		if d.reads == nil {
			d.reads, d.sent = map[quorum.NodeID]int{}, map[*wire.Request]bool{}
			d.dropped = -1
		}
		d.reads[to]++
		d.sent[req] = true
		drop := d.dropped < 0 && d.in.Contains(to)
		if drop {
			d.dropped = to
		}
		d.mu.Unlock()
		if drop {
			return nil, transport.ErrNodeDown
		}
	}
	return d.Client.Call(ctx, to, req)
}
