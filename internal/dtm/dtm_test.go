package dtm_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

func newCluster(t *testing.T, servers int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Servers: servers, StatsWindow: time.Hour})
	t.Cleanup(c.Close)
	return c
}

func rtFor(c *cluster.Cluster, seed int) *dtm.Runtime {
	return c.Runtime(seed, dtm.Config{Seed: int64(seed) + 1})
}

func TestCommitVisibleToLaterTransactions(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"acct": store.Int64(100)})
	rt := rtFor(c, 1)
	ctx := context.Background()

	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("acct")
		if err != nil {
			return err
		}
		return tx.Write("acct", store.Int64(store.AsInt64(v)+50))
	})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}

	var got int64
	err = rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("acct")
		if err != nil {
			return err
		}
		got = store.AsInt64(v)
		return nil
	})
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if got != 150 {
		t.Fatalf("acct = %d, want 150", got)
	}
}

func TestCommitVisibleAcrossClients(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})
	ctx := context.Background()

	if err := rtFor(c, 1).Atomic(ctx, func(tx *dtm.Tx) error {
		return tx.Write("x", store.Int64(7))
	}); err != nil {
		t.Fatal(err)
	}
	// A different client with a different quorum seed must still observe the
	// commit (read/write quorum intersection).
	for seed := 2; seed < 8; seed++ {
		var got int64
		if err := rtFor(c, seed).Atomic(ctx, func(tx *dtm.Tx) error {
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			got = store.AsInt64(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != 7 {
			t.Fatalf("client %d read %d, want 7", seed, got)
		}
	}
}

func TestWriteCreatesObject(t *testing.T) {
	c := newCluster(t, 4)
	rt := rtFor(c, 1)
	ctx := context.Background()
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("fresh")
		if err != nil {
			return err
		}
		if v != nil {
			return fmt.Errorf("expected nil for missing object, got %v", v)
		}
		return tx.Write("fresh", store.String("born"))
	}); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("fresh")
		if err != nil {
			return err
		}
		got = store.AsString(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "born" {
		t.Fatalf("got %q", got)
	}
}

func TestRepeatedReadsAreLocal(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.Read("a"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().RemoteReads.Load(); got != 1 {
		t.Fatalf("remote reads = %d, want 1 (later reads served from read-set)", got)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	c := newCluster(t, 4)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Write("a", store.Int64(42)); err != nil {
			return err
		}
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		if store.AsInt64(v) != 42 {
			return fmt.Errorf("read own write = %v, want 42", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalValidationAborts(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1)})
	rt := rtFor(c, 1)
	other := rtFor(c, 2)
	ctx := context.Background()

	attempts := 0
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		attempts++
		if _, err := tx.Read("a"); err != nil {
			return err
		}
		if attempts == 1 {
			// Concurrent commit invalidates "a" before our next read.
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("a", store.Int64(99))
			}); err != nil {
				return fmt.Errorf("interfering commit: %v", err)
			}
		}
		// This read's incremental validation must notice "a" changed
		// on the first attempt and succeed on the second.
		if _, err := tx.Read("b"); err != nil {
			return err
		}
		return tx.Write("b", store.Int64(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one abort, one success)", attempts)
	}
	if got := rt.Metrics().ParentAborts.Load(); got != 1 {
		t.Fatalf("parent aborts = %d, want 1", got)
	}
}

// TestReadReturnsNewestValueInQuorum makes three of ten replicas stale: every
// read quorum holds at least one fresh member, whatever level a client's seed
// picks, and each read must return that member's value, not a stale one.
// Read-repair is off so every seed meets the same stale replicas.
func TestReadReturnsNewestValueInQuorum(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})

	// Level 0 is {0}, level 1 {1,2,3}, level 2 {4..9}: with replicas 0..6 at
	// version 5 and 7..9 still at version 1, a majority of any level includes
	// a fresh replica.
	for i := 0; i <= 6; i++ {
		if err := c.Nodes[i].Store().Apply(store.WriteDesc{ID: "a", Value: store.Int64(99), NewVersion: 5}, "tx-ext"); err != nil {
			t.Fatal(err)
		}
	}

	for seed := 1; seed <= 12; seed++ {
		rt := c.Runtime(seed, dtm.Config{Seed: int64(seed), NoRepair: true})
		var got int64
		if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
			v, err := tx.Read("a")
			if err != nil {
				return err
			}
			got = store.AsInt64(v)
			return nil
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != 99 {
			t.Fatalf("seed %d read stale value %d", seed, got)
		}
	}
	for i := 7; i <= 9; i++ {
		if _, ver, err := c.Nodes[i].Store().Get("a"); err != nil || ver != 1 {
			t.Fatalf("replica %d at version %d (%v), want the stale 1", i, ver, err)
		}
	}
}

func TestSubTransactionPartialRollback(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{
		"cold": store.Int64(1),
		"hot":  store.Int64(1),
		"tail": store.Int64(1),
	})
	rt := rtFor(c, 1)
	other := rtFor(c, 2)
	ctx := context.Background()

	outerRuns, subRuns := 0, 0
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		outerRuns++
		if _, err := tx.Read("cold"); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			subRuns++
			if _, err := s.Read("hot"); err != nil {
				return err
			}
			if subRuns == 1 {
				if err := other.Atomic(ctx, func(o *dtm.Tx) error {
					return o.Write("hot", store.Int64(2))
				}); err != nil {
					return fmt.Errorf("interfering commit: %v", err)
				}
			}
			// Incremental validation on this read notices "hot" is stale.
			// "hot" was first accessed by this sub-transaction, so only the
			// sub-transaction re-executes.
			if _, err := s.Read("tail"); err != nil {
				return err
			}
			return s.Write("tail", store.Int64(5))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if outerRuns != 1 {
		t.Fatalf("outer ran %d times, want 1 (partial rollback)", outerRuns)
	}
	if subRuns != 2 {
		t.Fatalf("sub ran %d times, want 2", subRuns)
	}
	if got := rt.Metrics().SubAborts.Load(); got != 1 {
		t.Fatalf("sub aborts = %d, want 1", got)
	}
	if got := rt.Metrics().ParentAborts.Load(); got != 0 {
		t.Fatalf("parent aborts = %d, want 0", got)
	}
}

func TestSubInvalidationOfParentHistoryIsFullAbort(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"p": store.Int64(1), "s": store.Int64(1)})
	rt := rtFor(c, 1)
	other := rtFor(c, 2)
	ctx := context.Background()

	outerRuns := 0
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		outerRuns++
		if _, err := tx.Read("p"); err != nil { // parent history
			return err
		}
		if outerRuns == 1 {
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("p", store.Int64(2))
			}); err != nil {
				return fmt.Errorf("interfering commit: %v", err)
			}
		}
		return tx.Sub(func(s *dtm.Tx) error {
			// The validation piggybacked on this read reports "p", which
			// belongs to the parent: the whole transaction must restart.
			if _, err := s.Read("s"); err != nil {
				return err
			}
			return s.Write("s", store.Int64(3))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if outerRuns != 2 {
		t.Fatalf("outer ran %d times, want 2 (full abort)", outerRuns)
	}
	if got := rt.Metrics().ParentAborts.Load(); got != 1 {
		t.Fatalf("parent aborts = %d, want 1", got)
	}
}

func TestNestingDepthLimit(t *testing.T) {
	c := newCluster(t, 4)
	rt := rtFor(c, 1)
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		return tx.Sub(func(s *dtm.Tx) error {
			return s.Sub(func(*dtm.Tx) error { return nil })
		})
	})
	if !errors.Is(err, dtm.ErrNestingDepth) {
		t.Fatalf("err = %v, want ErrNestingDepth", err)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	c := newCluster(t, 4)
	rt := rtFor(c, 1)
	boom := errors.New("boom")
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRetriesExhausted(t *testing.T) {
	c := newCluster(t, 4)
	rt := c.Runtime(1, dtm.Config{MaxAttempts: 3, Seed: 1})
	runs := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		runs++
		return &dtm.AbortError{Level: dtm.AbortParent, Reason: "forced"}
	})
	if !errors.Is(err, dtm.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"ctr": store.Int64(0)})
	ctx := context.Background()

	const clients, perClient = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := rtFor(c, i+1)
			for j := 0; j < perClient; j++ {
				err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
					v, err := tx.Read("ctr")
					if err != nil {
						return err
					}
					return tx.Write("ctr", store.Int64(store.AsInt64(v)+1))
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var got int64
	if err := rtFor(c, 99).Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("ctr")
		if err != nil {
			return err
		}
		got = store.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != clients*perClient {
		t.Fatalf("ctr = %d, want %d (lost updates!)", got, clients*perClient)
	}
}

func TestBankInvariantUnderConcurrency(t *testing.T) {
	c := newCluster(t, 10)
	const accounts = 10
	const initial = 1000
	seedObjs := make(map[store.ObjectID]store.Value)
	for i := 0; i < accounts; i++ {
		seedObjs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(seedObjs)
	ctx := context.Background()

	const clients, transfers = 6, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := rtFor(c, i+1)
			for j := 0; j < transfers; j++ {
				from := store.ID("acct", (i+j)%accounts)
				to := store.ID("acct", (i+j+1)%accounts)
				err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, store.Int64(store.AsInt64(fv)-7)); err != nil {
						return err
					}
					return tx.Write(to, store.Int64(store.AsInt64(tv)+7))
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var total int64
	if err := rtFor(c, 77).Atomic(ctx, func(tx *dtm.Tx) error {
		total = 0
		for i := 0; i < accounts; i++ {
			v, err := tx.Read(store.ID("acct", i))
			if err != nil {
				return err
			}
			total += store.AsInt64(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*initial)
	}
}

func TestSurvivesLeafNodeFailure(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	ctx := context.Background()

	// Nodes 4..9 are leaves of the 10-node ternary tree (levels 1,3,6).
	c.Kill(quorum.NodeID(9))
	c.Kill(quorum.NodeID(8))

	rt := rtFor(c, 1)
	for i := 0; i < 10; i++ {
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			v, err := tx.Read("a")
			if err != nil {
				return err
			}
			return tx.Write("a", store.Int64(store.AsInt64(v)+1))
		}); err != nil {
			t.Fatalf("tx %d after leaf failures: %v", i, err)
		}
	}

	// Revive and verify a fresh client reads the latest value despite the
	// revived (stale) replicas participating again.
	c.Revive(9)
	c.Revive(8)
	var got int64
	if err := rtFor(c, 5).Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		got = store.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("a = %d, want 11", got)
	}
}

func TestRootFailureBlocksWritesButQuorumErrorIsClean(t *testing.T) {
	c := newCluster(t, 4) // levels: [0], [1 2 3]
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	c.Kill(quorum.NodeID(0))
	rt := c.Runtime(1, dtm.Config{MaxAttempts: 2, Seed: 1})
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		return tx.Write("a", store.Int64(2))
	})
	if !errors.Is(err, dtm.ErrQuorumUnreachable) {
		t.Fatalf("err = %v, want ErrQuorumUnreachable", err)
	}
}

func TestReadOnlyTransactionSkips2PC(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("a")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if m.Prepares != 0 {
		t.Fatalf("read-only tx used %d write-quorum prepares", m.Prepares)
	}
	if m.ReadOnlyFasts == 0 {
		t.Fatal("read-only validation did not run")
	}
}

func TestContextCancellation(t *testing.T) {
	c := newCluster(t, 4)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		_, err := tx.Read("a")
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTransactionReadsCarryNoStatsQuery: contention levels come from the
// Hub's explicit query alone, so no transaction read — a plain one or a
// read-ahead's multi-object read, on one quorum tree or over two groups —
// asks for stats,
// and the deprecated piggyback settings do nothing.
func TestTransactionReadsCarryNoStatsQuery(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := cluster.Config{Servers: 10, StatsWindow: time.Hour}
			if shards > 1 {
				cfg.Servers, cfg.Shards = 10*shards, shards
			}
			c := cluster.New(cfg)
			defer c.Close()
			a, b := store.ObjectID("x"), store.ObjectID("y")
			if shards > 1 {
				a, b = twoGroupKeys(t, c)
			}
			c.Seed(map[store.ObjectID]store.Value{a: store.Int64(0), b: store.Int64(0)})
			var sunk atomic.Int64
			rt, sc := scriptedRuntime(c, dtm.Config{
				StatsEveryNReads: 1,
				StatsWanted:      func() []store.ObjectID { return []store.ObjectID{a, b} },
				StatsSink:        func(map[store.ObjectID]float64) { sunk.Add(1) },
			})
			ctx := context.Background()
			for i := 0; i < 3; i++ {
				if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
					if _, err := tx.Read(a); err != nil {
						return err
					}
					_, err := tx.Read(b)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if err := rt.Atomic(ctx, func(tx *dtm.Tx) error { return tx.Prefetch(a, b) }); err != nil {
					t.Fatal(err)
				}
			}
			reads := sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindRead && r.Read.Object != "" })
			// Unsharded, the read-ahead of a and b is one read naming both;
			// on two groups it is one read per group, naming one each.
			multi := 0
			for _, s := range reads {
				if len(s.req.Read.More) > 0 {
					multi++
				}
				if len(s.req.Read.StatsFor) > 0 {
					t.Fatalf("read of %s (and %v) to node %d asks for stats of %v", s.req.Read.Object, s.req.Read.More, s.to, s.req.Read.StatsFor)
				}
			}
			if len(reads) == 0 || (shards <= 1) != (multi > 0) {
				t.Fatalf("%d reads sent, %d of them naming several objects", len(reads), multi)
			}
			if n := sunk.Load(); n != 0 {
				t.Fatalf("stats sink called %d times, want 0", n)
			}
		})
	}
}

// TestFetchStats: the level FetchStats returns is the maximum of the levels
// the members of the read quorum it asked each count for themselves.
func TestFetchStats(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"hot": store.Int64(1)})
	ctx := context.Background()
	w := rtFor(c, 3)
	for i := 0; i < 4; i++ {
		if err := w.Atomic(ctx, func(tx *dtm.Tx) error {
			return tx.Write("hot", store.Int64(int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	rt, sc := scriptedRuntime(c, dtm.Config{})
	levels, err := rt.FetchStats(ctx, []store.ObjectID{"hot"})
	if err != nil {
		t.Fatal(err)
	}
	asked := sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindRead && r.Read.Object == "" })
	if len(asked) < 2 {
		t.Fatalf("stats query went to %d members, want a read quorum", len(asked))
	}
	// Each member's own count, read from it directly with the same query.
	var most float64
	for _, s := range asked {
		resp := c.Nodes[s.to].Handle(ctx, &wire.Request{Kind: wire.KindRead, Read: &wire.ReadRequest{StatsFor: []store.ObjectID{"hot"}}})
		if resp.Read == nil {
			t.Fatalf("node %d answered the stats query with %s and no levels", s.to, resp.Status)
		}
		if lv := resp.Read.Stats["hot"]; lv > most {
			most = lv
		}
	}
	if most < 1 || levels["hot"] != most {
		t.Fatalf("FetchStats level %v, asked members' maximum %v: want equal and at least 1", levels["hot"], most)
	}
}

// TestFetchStatsAsksEachGroupItsOwnIDs: under a shard map the stats query is
// one stats-only read per group, sent to that group's members and naming that
// group's IDs alone, and the merged levels come from the group that counted
// the writes.
func TestFetchStatsAsksEachGroupItsOwnIDs(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 20, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	a, b := twoGroupKeys(t, c)
	c.Seed(map[store.ObjectID]store.Value{a: store.Int64(0), b: store.Int64(0)})
	rt, sc := scriptedRuntime(c, dtm.Config{})
	ctx := context.Background()
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error { return tx.Write(a, store.Int64(1)) }); err != nil {
		t.Fatal(err)
	}
	levels, err := rt.FetchStats(ctx, []store.ObjectID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if levels[a] != 1 || levels[b] != 0 {
		t.Fatalf("levels = %v, want %s: 1 and %s: 0", levels, a, b)
	}
	asked := map[int]bool{}
	for _, s := range sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindRead && r.Read.Object == "" }) {
		ids := s.req.Read.StatsFor
		if len(ids) != 1 || !c.Shards.GroupOf(ids[0]).Contains(s.to) {
			t.Fatalf("node %d was asked for %v: want one ID of its own group", s.to, ids)
		}
		asked[c.Shards.ShardFor(ids[0])] = true
	}
	if !asked[0] || !asked[1] {
		t.Fatalf("groups asked: %v, want both", asked)
	}
}

func TestAbortErrorFormatting(t *testing.T) {
	e := &dtm.AbortError{Level: dtm.AbortSub, Invalid: []store.ObjectID{"x"}, Reason: "r"}
	if e.Error() == "" || dtm.AbortSub.String() != "sub" || dtm.AbortParent.String() != "parent" {
		t.Fatal("formatting broken")
	}
	if _, ok := dtm.AsAbort(errors.New("nope")); ok {
		t.Fatal("AsAbort matched a non-abort error")
	}
	if _, ok := dtm.AsAbort(fmt.Errorf("wrap: %w", e)); !ok {
		t.Fatal("AsAbort missed a wrapped abort")
	}
}
