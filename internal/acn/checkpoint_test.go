package acn_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
)

func TestCheckpointedExecutionSemantics(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 4, 1000)
	rt := c.Runtime(1, dtm.Config{Seed: 7})
	exec := acn.NewExecutor(rt, an, acn.Static(an))

	for i := 0; i < 10; i++ {
		if err := exec.Execute(context.Background(), transferParams(0, 1, i%4, (i+1)%4, 5)); err != nil {
			t.Fatal(err)
		}
	}
	bTot, aTot := totalMoney(t, rt, 2, 4)
	if bTot != 2000 || aTot != 4000 {
		t.Fatalf("money not conserved under checkpointing: %d/%d", bTot, aTot)
	}
}

// TestCheckpointedPartialRollback builds a program where a mid-transaction
// invalidation must roll back to an intermediate checkpoint: the statements
// before the invalidated read must NOT re-execute.
func TestCheckpointedPartialRollback(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{
		"cold": store.Int64(1),
		"hot":  store.Int64(1),
		"tail": store.Int64(1),
	})
	rt := c.Runtime(1, dtm.Config{Seed: 3})
	other := c.Runtime(2, dtm.Config{Seed: 4})
	ctx := context.Background()

	coldRuns, hotRuns, tailRuns := 0, 0, 0
	invalidated := false
	p := txir.NewProgram("cp-test")
	p.Read("cold", "cold", func(*txir.Env) store.ObjectID { return "cold" }, "c")
	p.Local(func(e *txir.Env) error {
		coldRuns++
		e.SetInt64("cval", e.GetInt64("c"))
		return nil
	}, []txir.Var{"c"}, []txir.Var{"cval"})
	p.Read("hot", "hot", func(*txir.Env) store.ObjectID { return "hot" }, "h")
	p.Local(func(e *txir.Env) error {
		hotRuns++
		if !invalidated {
			invalidated = true
			// A concurrent commit invalidates "hot" after we read it.
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("hot", store.Int64(2))
			}); err != nil {
				return fmt.Errorf("interfering commit: %v", err)
			}
		}
		e.SetInt64("hval", e.GetInt64("h"))
		return nil
	}, []txir.Var{"h"}, []txir.Var{"hval"})
	// The next read's incremental validation reports "hot" as stale.
	p.Read("tail", "tail", func(*txir.Env) store.ObjectID { return "tail" }, "tl")
	p.Local(func(e *txir.Env) error {
		tailRuns++
		e.SetInt64("sum", e.GetInt64("cval")+e.GetInt64("hval")+e.GetInt64("tl"))
		return nil
	}, []txir.Var{"cval", "hval", "tl"}, []txir.Var{"sum"})
	p.Write("tail", "tail", func(*txir.Env) store.ObjectID { return "tail" }, "sum")

	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	// On demand, so that the read of "tail" is a round that validates "hot"
	// in flight; a read-ahead would fetch all three at the first Block's
	// entry and leave the stale "hot" to the prepare.
	exec.SetPrefetch(false)
	if err := exec.Execute(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if coldRuns != 1 {
		t.Fatalf("cold section ran %d times, want 1 (checkpointing saved it)", coldRuns)
	}
	if hotRuns != 2 {
		t.Fatalf("hot section ran %d times, want 2 (rolled back to hot's checkpoint)", hotRuns)
	}
	if tailRuns != 1 {
		t.Fatalf("tail ran %d times, want 1", tailRuns)
	}
	if got := rt.Metrics().SubAborts.Load(); got != 1 {
		t.Fatalf("partial aborts = %d, want 1", got)
	}
	if got := rt.Metrics().ParentAborts.Load(); got != 0 {
		t.Fatalf("full aborts = %d, want 0", got)
	}

	// The committed value must reflect the *new* hot value (2): rollback
	// re-read it.
	var tail int64
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("tail")
		if err != nil {
			return err
		}
		tail = store.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tail != 1+2+1 {
		t.Fatalf("tail = %d, want 4 (1 cold + 2 new hot + 1 tail)", tail)
	}
}

func TestCheckpointedUserErrorPropagates(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"o": store.Int64(1)})
	rt := c.Runtime(1, dtm.Config{Seed: 1})

	boom := fmt.Errorf("boom")
	p := txir.NewProgram("err")
	p.Read("o", "o", func(*txir.Env) store.ObjectID { return "o" }, "v")
	p.Local(func(*txir.Env) error { return boom }, []txir.Var{"v"}, []txir.Var{"x"})
	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	if err := exec.Execute(context.Background(), nil); err == nil {
		t.Fatal("user error swallowed")
	}
}

func TestCheckpointedConcurrentConservation(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 8, 10000)
	ctx := context.Background()

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			rt := c.Runtime(i+1, dtm.Config{Seed: int64(i) + 1})
			exec := acn.NewExecutor(rt, an, acn.Static(an))
			for j := 0; j < 25; j++ {
				if err := exec.Execute(ctx, transferParams(0, 1, (i+j)%8, (i+j+1)%8, 3)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	rt := c.Runtime(99, dtm.Config{Seed: 99})
	bTot, aTot := totalMoney(t, rt, 2, 8)
	if bTot != 20000 || aTot != 80000 {
		t.Fatalf("money not conserved: %d/%d", bTot, aTot)
	}
}
