package acn_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
)

// TestPrefetchCollapsesBlockReadsToOneRound is the headline property of the
// batched pipeline: a Block whose k first-access reads are statically known
// at Block entry costs exactly one quorum round, not k.
func TestPrefetchCollapsesBlockReadsToOneRound(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 4, 1000)
	rt := c.Runtime(1, dtm.Config{Seed: 7})
	// Flat composition: all four anchors (two branch reads, two account
	// reads) land in one Block, and all have parameter-only refs.
	exec := acn.NewExecutor(rt, an, acn.Flat(an))

	before := rt.Metrics().Snapshot()
	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	after := rt.Metrics().Snapshot()
	if n := after.RemoteReads - before.RemoteReads; n != 1 {
		t.Fatalf("RemoteReads = %d for a 4-read Block, want 1", n)
	}
	if n := after.BatchReads - before.BatchReads; n != 1 {
		t.Fatalf("BatchReads = %d, want 1", n)
	}
	if n := after.PrefetchedObjects - before.PrefetchedObjects; n != 4 {
		t.Fatalf("PrefetchedObjects = %d, want 4", n)
	}

	// The same invocation with prefetch disabled pays one round per read.
	exec.SetPrefetch(false)
	mid := rt.Metrics().Snapshot()
	if err := exec.Execute(context.Background(), transferParams(0, 1, 2, 3, 5)); err != nil {
		t.Fatal(err)
	}
	final := rt.Metrics().Snapshot()
	if n := final.RemoteReads - mid.RemoteReads; n != 4 {
		t.Fatalf("RemoteReads = %d with prefetch disabled, want 4", n)
	}
	if n := final.BatchReads - mid.BatchReads; n != 0 {
		t.Fatalf("BatchReads = %d with prefetch disabled, want 0", n)
	}

	bTot, aTot := totalMoney(t, rt, 2, 4)
	if bTot != 2000 || aTot != 4000 {
		t.Fatalf("money not conserved: branches=%d accounts=%d", bTot, aTot)
	}
}

// TestPrefetchPerBlockRounds checks the per-Block accounting under a
// decomposed composition: a two-anchor Block batches, single-anchor Blocks
// read plainly.
func TestPrefetchPerBlockRounds(t *testing.T) {
	an := analyze(t)
	comp, err := acn.Manual(an, [][]int{{0, 1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 4, 1000)
	rt := c.Runtime(1, dtm.Config{Seed: 7})
	exec := acn.NewExecutor(rt, an, comp)

	before := rt.Metrics().Snapshot()
	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	after := rt.Metrics().Snapshot()
	// Block {0,1}: one batched round. Blocks {2} and {3}: one plain round
	// each (a single-object batch would gain nothing).
	if n := after.RemoteReads - before.RemoteReads; n != 3 {
		t.Fatalf("RemoteReads = %d, want 3 (1 batched + 2 plain)", n)
	}
	if n := after.BatchReads - before.BatchReads; n != 1 {
		t.Fatalf("BatchReads = %d, want 1", n)
	}
	if n := after.PrefetchedObjects - before.PrefetchedObjects; n != 2 {
		t.Fatalf("PrefetchedObjects = %d, want 2", n)
	}
}

// chainProgram has a read whose object reference depends on a value computed
// inside the transaction: that anchor must be excluded from the prefetch set
// while the independent anchors still batch.
func chainProgram() *txir.Program {
	p := txir.NewProgram("chain")
	p.ReadP("dir", "d", "slot") // anchor 0: parameter ref
	p.Local(func(e *txir.Env) error {
		e.SetInt64("k", e.GetInt64("d")+1)
		return nil
	}, []txir.Var{"d"}, []txir.Var{"k"})
	p.Read("obj", "k", func(e *txir.Env) store.ObjectID { // anchor 1: depends on k
		return store.ID("obj", e.GetInt64("k"))
	}, "v", "k")
	p.ReadP("other", "o", "slot") // anchor 2: parameter ref
	return p
}

func TestPrefetchSkipsDataDependentRefs(t *testing.T) {
	an, err := unitgraph.Analyze(chainProgram())
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{
		store.ID("dir", 0):         store.Int64(41),
		store.ID("obj", int64(42)): store.Int64(7),
		store.ID("other", 0):       store.Int64(9),
	})
	rt := c.Runtime(1, dtm.Config{Seed: 3})
	exec := acn.NewExecutor(rt, an, acn.Flat(an))

	before := rt.Metrics().Snapshot()
	if err := exec.Execute(context.Background(), map[string]any{"slot": 0}); err != nil {
		t.Fatal(err)
	}
	after := rt.Metrics().Snapshot()
	// Anchors 0 and 2 batch into one round; anchor 1 (k is computed inside
	// the Block) pays its own round.
	if n := after.RemoteReads - before.RemoteReads; n != 2 {
		t.Fatalf("RemoteReads = %d, want 2 (1 batched + 1 dependent)", n)
	}
	if n := after.PrefetchedObjects - before.PrefetchedObjects; n != 2 {
		t.Fatalf("PrefetchedObjects = %d, want 2", n)
	}
}

// TestPrefetchOverTCP runs the one-round property end to end across real
// TCP connections: batch framing, the stream codec, and concurrent
// server-side sub-dispatch all sit on the path.
func TestPrefetchOverTCP(t *testing.T) {
	an := analyze(t)
	tc, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < 2; i++ {
		objs[store.ID("branch", i)] = store.Int64(1000)
	}
	for i := 0; i < 4; i++ {
		objs[store.ID("account", i)] = store.Int64(1000)
	}
	tc.Seed(objs)

	rt := tc.Runtime(1, dtm.Config{Seed: 7})
	exec := acn.NewExecutor(rt, an, acn.Flat(an))

	before := rt.Metrics().Snapshot()
	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	after := rt.Metrics().Snapshot()
	if n := after.RemoteReads - before.RemoteReads; n != 1 {
		t.Fatalf("RemoteReads = %d over TCP, want 1", n)
	}
	if n := after.PrefetchedObjects - before.PrefetchedObjects; n != 4 {
		t.Fatalf("PrefetchedObjects = %d, want 4", n)
	}

	// Semantics across the wire: balances moved and money conserved.
	var b0, b1 int64
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		v0, err := tx.Read(store.ID("branch", 0))
		if err != nil {
			return err
		}
		v1, err := tx.Read(store.ID("branch", 1))
		if err != nil {
			return err
		}
		b0, b1 = store.AsInt64(v0), store.AsInt64(v1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if b0 != 995 || b1 != 1005 {
		t.Fatalf("branches = %d/%d, want 995/1005", b0, b1)
	}
}
