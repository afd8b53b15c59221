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

// TestRewindKeepsEarlierBlocks runs four Blocks, one per UnitBlock. A writer
// commits a new "b" after Block 1 read it, and Block 3's read validates the
// read set and finds "b" stale. Execute rewinds to Block 1's savepoint
// instead of restarting: Block 0 runs once, Blocks 1–3 twice, and the commit
// sees the writer's "b". Block 3 reads a row keyed by Block 2's variable, so
// that read is a round of its own in both read arms. In the bounded case the
// writer commits again during the re-run and MaxSubAttempts allows one
// rewind per attempt, so the second conflict restarts the transaction.
func TestRewindKeepsEarlierBlocks(t *testing.T) {
	for _, tc := range []struct {
		name        string
		prefetch    bool
		maxSub      int
		writes      int // commits of "b" by the writer, one per run of Block 2
		runs        [4]int
		sub, parent uint64
	}{
		{"on-demand", false, 0, 1, [4]int{1, 2, 2, 2}, 1, 0},
		{"read-ahead", true, 0, 1, [4]int{1, 2, 2, 2}, 1, 0},
		{"bounded", false, 1, 2, [4]int{2, 3, 3, 3}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
			defer c.Close()
			c.Seed(map[store.ObjectID]store.Value{
				"a": store.Int64(1), "b": store.Int64(1), "c": store.Int64(1), store.ID("d", 1): store.Int64(1),
			})
			rt := c.Runtime(1, dtm.Config{Seed: 3, MaxSubAttempts: tc.maxSub})
			other := c.Runtime(2, dtm.Config{Seed: 4})
			ctx := context.Background()

			ref := func(id store.ObjectID) txir.RefFunc { return func(*txir.Env) store.ObjectID { return id } }
			var runs [4]int
			p := txir.NewProgram("rewind")
			p.Read("a", "a", ref("a"), "av") // anchor 0
			p.Local(func(e *txir.Env) error {
				runs[0]++
				e.SetInt64("a2", e.GetInt64("av"))
				return nil
			}, []txir.Var{"av"}, []txir.Var{"a2"})
			p.Read("b", "b", ref("b"), "bv") // anchor 1
			p.Local(func(e *txir.Env) error {
				runs[1]++
				e.SetInt64("b2", e.GetInt64("bv"))
				return nil
			}, []txir.Var{"bv"}, []txir.Var{"b2"})
			p.Read("c", "c", ref("c"), "cv") // anchor 2
			p.Local(func(e *txir.Env) error {
				if runs[2]++; runs[2] <= tc.writes {
					if err := other.Atomic(ctx, func(o *dtm.Tx) error {
						return o.Write("b", store.Int64(int64(1+runs[2])))
					}); err != nil {
						return err
					}
				}
				e.SetInt64("c2", e.GetInt64("cv"))
				return nil
			}, []txir.Var{"cv"}, []txir.Var{"c2"})
			// anchor 3: its Ref is evaluated once per run of Block 3.
			p.Read("d", "d,c2", func(e *txir.Env) store.ObjectID {
				runs[3]++
				return store.ID("d", int(e.GetInt64("c2")))
			}, "dv", "c2")
			p.Local(func(e *txir.Env) error {
				e.SetInt64("sum", e.GetInt64("a2")+e.GetInt64("b2")+e.GetInt64("c2")+e.GetInt64("dv"))
				return nil
			}, []txir.Var{"a2", "b2", "c2", "dv"}, []txir.Var{"sum"})
			p.Write("d", "d,c2", func(e *txir.Env) store.ObjectID {
				return store.ID("d", int(e.GetInt64("c2")))
			}, "sum", "c2")

			an, err := unitgraph.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			comp := acn.Static(an)
			if comp.NumBlocks() != 4 {
				t.Fatalf("Static composition %s, want four Blocks", comp)
			}
			exec := acn.NewExecutor(rt, an, comp)
			exec.SetPrefetch(tc.prefetch)
			if err := exec.Execute(ctx, nil); err != nil {
				t.Fatal(err)
			}
			if runs != tc.runs {
				t.Fatalf("Blocks 0–3 ran %v times, want %v", runs, tc.runs)
			}
			if m := rt.Metrics().Snapshot(); m.SubAborts != tc.sub || m.ParentAborts != tc.parent {
				t.Fatalf("sub aborts = %d, parent aborts = %d; want %d and %d", m.SubAborts, m.ParentAborts, tc.sub, tc.parent)
			}
			var d int64
			if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
				v, err := tx.Read(store.ID("d", 1))
				d = store.AsInt64(v)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			// a 1 + the writer's last b + c 1 + d 1
			if want := int64(1 + 1 + tc.writes + 1 + 1); d != want {
				t.Fatalf("d = %d, want %d", d, want)
			}
		})
	}
}

// TestRewindReevaluatesDependentRefs is NewOrder's shape with read-ahead on:
// the order row is keyed by the order id the district Block reads, and the
// read-ahead evaluates that key once the district Block is done. A concurrent
// commit moves the district on after it was read, a later lone read finds it
// stale, and Execute rewinds to the district Block. The re-run reads the new
// order id, so the key evaluated before the rewind must be evaluated again:
// the commit writes the order row under the new id and nothing under the
// old one.
func TestRewindReevaluatesDependentRefs(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{
		"district": store.Int64(10), "x": store.Int64(1), store.ID("probe", 1): store.Int64(1),
	})
	rt := c.Runtime(1, dtm.Config{Seed: 3})
	other := c.Runtime(2, dtm.Config{Seed: 4})
	ctx := context.Background()

	ref := func(id store.ObjectID) txir.RefFunc { return func(*txir.Env) store.ObjectID { return id } }
	orderRef := func(e *txir.Env) store.ObjectID { return store.ID("order", int(e.GetInt64("oid"))) }
	bumped := false
	p := txir.NewProgram("rewind-refs")
	p.Read("district", "district", ref("district"), "dist") // anchor 0
	p.Local(func(e *txir.Env) error {
		e.SetInt64("oid", e.GetInt64("dist"))
		e.SetInt64("ndist", e.GetInt64("dist")+1)
		return nil
	}, []txir.Var{"dist"}, []txir.Var{"oid", "ndist"})
	p.Write("district", "district", ref("district"), "ndist")
	p.Read("x", "x", ref("x"), "xv") // anchor 1
	p.Local(func(e *txir.Env) error {
		if !bumped {
			bumped = true
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("district", store.Int64(20))
			}); err != nil {
				return err
			}
		}
		e.SetInt64("x2", e.GetInt64("xv"))
		return nil
	}, []txir.Var{"xv"}, []txir.Var{"x2"})
	// anchor 2: keyed by Block 1's variable, so its read is a lone round.
	p.Read("probe", "probe,x2", func(e *txir.Env) store.ObjectID {
		return store.ID("probe", int(e.GetInt64("x2")))
	}, "pv", "x2")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("row", e.GetInt64("oid")*100+e.GetInt64("pv"))
		return nil
	}, []txir.Var{"oid", "pv"}, []txir.Var{"row"})
	p.Write("order", "oid", orderRef, "row", "oid") // anchor 3

	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	comp := acn.Static(an)
	if comp.NumBlocks() != 4 {
		t.Fatalf("Static composition %s, want four Blocks", comp)
	}
	exec := acn.NewExecutor(rt, an, comp)
	if err := exec.Execute(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics().Snapshot(); m.SubAborts != 1 || m.ParentAborts != 0 {
		t.Fatalf("sub aborts = %d, parent aborts = %d; want 1 and 0 (one rewind)", m.SubAborts, m.ParentAborts)
	}
	for _, n := range c.Nodes {
		if _, ok := n.Store().Version(store.ID("order", 10)); ok {
			t.Fatalf("node %d holds an order row under the old id 10", n.ID())
		}
	}
	var row, dist int64
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read(store.ID("order", 20))
		if err != nil {
			return err
		}
		row = store.AsInt64(v)
		v, err = tx.Read("district")
		dist = store.AsInt64(v)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if row != 20*100+1 || dist != 21 {
		t.Fatalf("order row under id 20 = %d, district = %d; want 2001 and 21", row, dist)
	}
}

// TestRewindSkipsEscalatedBlock lets a Block roll back once only
// (MaxSubAttempts 1). Its conflict stays inside it, so the escalated abort
// names an object the Block read itself and has already rolled back: no
// earlier Block owns it, and the transaction restarts instead of rewinding.
func TestRewindSkipsEscalatedBlock(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1), "c": store.Int64(1)})
	rt := c.Runtime(1, dtm.Config{Seed: 3, MaxSubAttempts: 1})
	other := c.Runtime(2, dtm.Config{Seed: 4})
	ctx := context.Background()

	ref := func(id store.ObjectID) txir.RefFunc { return func(*txir.Env) store.ObjectID { return id } }
	aRuns, bRuns := 0, 0
	p := txir.NewProgram("escalate")
	p.Read("a", "a", ref("a"), "av") // anchor 0
	p.Local(func(e *txir.Env) error {
		aRuns++
		e.SetInt64("a2", e.GetInt64("av"))
		return nil
	}, []txir.Var{"av"}, []txir.Var{"a2"})
	p.Read("b", "b", ref("b"), "bv") // anchor 1
	p.Local(func(e *txir.Env) error {
		if bRuns++; bRuns == 1 {
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("b", store.Int64(2))
			}); err != nil {
				return err
			}
		}
		e.SetInt64("b2", e.GetInt64("bv"))
		return nil
	}, []txir.Var{"bv"}, []txir.Var{"b2"})
	p.Read("c", "c", ref("c"), "cv") // anchor 2: validates "b" in Block 1
	p.Local(func(e *txir.Env) error {
		e.SetInt64("sum", e.GetInt64("a2")+e.GetInt64("b2")+e.GetInt64("cv"))
		return nil
	}, []txir.Var{"a2", "b2", "cv"}, []txir.Var{"sum"})
	p.Write("c", "c", ref("c"), "sum")

	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := acn.Manual(an, [][]int{{0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	exec := acn.NewExecutor(rt, an, comp)
	exec.SetPrefetch(false)
	if err := exec.Execute(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics().Snapshot(); m.SubAborts != 1 || m.ParentAborts != 1 {
		t.Fatalf("sub aborts = %d, parent aborts = %d; want 1 (Block 1's own) and 1 (the restart)", m.SubAborts, m.ParentAborts)
	}
	if aRuns != 2 || bRuns != 2 {
		t.Fatalf("Block 0 ran %d times, Block 1 %d; want 2 and 2", aRuns, bRuns)
	}
}
