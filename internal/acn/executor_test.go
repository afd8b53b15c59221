package acn_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
)

// transferProgram is the Fig. 1 Bank transfer over parameterized branches
// and accounts.
func transferProgram() *txir.Program {
	p := txir.NewProgram("transfer")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("amt", int64(e.ParamInt("amount")))
		return nil
	}, nil, []txir.Var{"amt"})
	p.ReadP("branch", "b1", "srcBranch") // anchor 0
	p.ReadP("branch", "b2", "dstBranch") // anchor 1
	p.Local(func(e *txir.Env) error {
		e.SetInt64("nb1", e.GetInt64("b1")-e.GetInt64("amt"))
		e.SetInt64("nb2", e.GetInt64("b2")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"b1", "b2", "amt"}, []txir.Var{"nb1", "nb2"})
	p.WriteP("branch", "nb1", "srcBranch")
	p.WriteP("branch", "nb2", "dstBranch")
	p.ReadP("account", "a1", "srcAcct") // anchor 2
	p.ReadP("account", "a2", "dstAcct") // anchor 3
	p.Local(func(e *txir.Env) error {
		e.SetInt64("na1", e.GetInt64("a1")-e.GetInt64("amt"))
		e.SetInt64("na2", e.GetInt64("a2")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"a1", "a2", "amt"}, []txir.Var{"na1", "na2"})
	p.WriteP("account", "na1", "srcAcct")
	p.WriteP("account", "na2", "dstAcct")
	return p
}

func bankObjects(branches, accounts int, initial int64) map[store.ObjectID]store.Value {
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < branches; i++ {
		objs[store.ID("branch", i)] = store.Int64(initial)
	}
	for i := 0; i < accounts; i++ {
		objs[store.ID("account", i)] = store.Int64(initial)
	}
	return objs
}

func seedBank(c *cluster.Cluster, branches, accounts int, initial int64) {
	c.Seed(bankObjects(branches, accounts, initial))
}

func transferParams(sb, db, sa, da, amount int) map[string]any {
	return map[string]any{
		"srcBranch": sb, "dstBranch": db,
		"srcAcct": sa, "dstAcct": da,
		"amount": amount,
	}
}

func analyze(t *testing.T) *unitgraph.Analysis {
	t.Helper()
	an, err := unitgraph.Analyze(transferProgram())
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func totalMoney(t *testing.T, rt *dtm.Runtime, branches, accounts int) (int64, int64) {
	t.Helper()
	var bTot, aTot int64
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		bTot, aTot = 0, 0
		for i := 0; i < branches; i++ {
			v, err := tx.Read(store.ID("branch", i))
			if err != nil {
				return err
			}
			bTot += store.AsInt64(v)
		}
		for i := 0; i < accounts; i++ {
			v, err := tx.Read(store.ID("account", i))
			if err != nil {
				return err
			}
			aTot += store.AsInt64(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bTot, aTot
}

func TestExecutorModesPreserveSemantics(t *testing.T) {
	an := analyze(t)
	compositions := map[string]func() *acn.Composition{
		"flat":   func() *acn.Composition { return acn.Flat(an) },
		"static": func() *acn.Composition { return acn.Static(an) },
		"manual": func() *acn.Composition {
			c, err := acn.Manual(an, [][]int{{2}, {3}, {0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, mk := range compositions {
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
			defer c.Close()
			seedBank(c, 2, 4, 1000)
			rt := c.Runtime(1, dtm.Config{Seed: 7})
			exec := acn.NewExecutor(rt, an, mk())

			for i := 0; i < 10; i++ {
				if err := exec.Execute(context.Background(), transferParams(0, 1, i%4, (i+1)%4, 5)); err != nil {
					t.Fatal(err)
				}
			}
			bTot, aTot := totalMoney(t, rt, 2, 4)
			if bTot != 2000 || aTot != 4000 {
				t.Fatalf("money not conserved: branches=%d accounts=%d", bTot, aTot)
			}
			// Branch 0 lost 10*5, branch 1 gained it.
			var b0 int64
			if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
				v, err := tx.Read(store.ID("branch", 0))
				if err != nil {
					return err
				}
				b0 = store.AsInt64(v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if b0 != 950 {
				t.Fatalf("branch0 = %d, want 950", b0)
			}
		})
	}
}

func TestExecutorSamplersTrackObjects(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 2, 100)
	rt := c.Runtime(1, dtm.Config{Seed: 7})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	ids := exec.SampledIDs()
	want := map[store.ObjectID]bool{
		"branch/0": true, "branch/1": true, "account/0": true, "account/1": true,
	}
	if len(ids) != len(want) {
		t.Fatalf("SampledIDs = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected sampled id %s", id)
		}
	}
	if got := exec.AnchorSample(0); len(got) != 1 || got[0] != "branch/0" {
		t.Fatalf("AnchorSample(0) = %v", got)
	}
}

func TestExecutorConcurrentWithSwap(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 8, 10000)

	alg := acn.NewAlgorithm(an, acn.AlgoConfig{})
	execs := make([]*acn.Executor, 4)
	for i := range execs {
		execs[i] = acn.NewExecutor(c.Runtime(i+1, dtm.Config{Seed: int64(i) + 1}), an, acn.Static(an))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Swapper goroutine flips compositions while transactions run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			comp := alg.Recompose(func(a int) float64 { return float64((a + i) % 5) })
			for _, e := range execs {
				e.SetComposition(comp)
			}
			i++
			time.Sleep(time.Millisecond)
		}
	}()

	errs := make(chan error, len(execs))
	for i, e := range execs {
		wg.Add(1)
		go func(i int, e *acn.Executor) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				if err := e.Execute(context.Background(), transferParams(0, 1, (i+j)%8, (i+j+1)%8, 3)); err != nil {
					errs <- err
					return
				}
			}
		}(i, e)
	}
	// Wait for workers, then stop the swapper.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	defer func() { <-done }()
	defer close(stop)

	for i := 0; i < len(execs); i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	rt := c.Runtime(99, dtm.Config{Seed: 99})
	bTot, aTot := totalMoney(t, rt, 2, 8)
	if bTot != 20000 || aTot != 80000 {
		t.Fatalf("money not conserved under composition swaps: %d/%d", bTot, aTot)
	}
}

// TestControllerAdaptsToHotBranches: a Hub of one executor, refreshed once,
// moves the hot branch Blocks toward the commit point.
func TestControllerAdaptsToHotBranches(t *testing.T) {
	an := analyze(t)
	// Drive the contention meters with a manual clock so window rotation is
	// deterministic: real sleeps race the window boundary under -race, and a
	// meter that sees two silent windows discards the hot counts.
	const window = 50 * time.Millisecond
	var clkMu sync.Mutex
	clk := time.Unix(0, 0)
	now := func() time.Time { clkMu.Lock(); defer clkMu.Unlock(); return clk }
	advance := func(d time.Duration) { clkMu.Lock(); clk = clk.Add(d); clkMu.Unlock() }
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: window, Now: now})
	defer c.Close()
	seedBank(c, 2, 100, 100000)
	ctx := context.Background()

	rt := c.Runtime(1, dtm.Config{Seed: 5})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	hub := acn.NewHub(rt, acn.HubConfig{})
	hub.Register(exec, acn.AlgoConfig{})

	// Drive transfers: branches are always 0/1 (hot); accounts spread over
	// 100 (cold).
	for i := 0; i < 60; i++ {
		if err := exec.Execute(ctx, transferParams(0, 1, i%100, (i+37)%100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	advance(window) // let the stats window rotate
	for i := 0; i < 20; i++ {
		if err := exec.Execute(ctx, transferParams(0, 1, i%100, (i+37)%100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	advance(window) // complete the window holding the second batch

	if err := hub.RefreshOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if hub.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", hub.Refreshes())
	}
	comp := exec.Composition()

	// The branch blocks (anchors 0, 1) must now execute after the account
	// blocks (anchors 2, 3).
	pos := map[int]int{}
	for bi, b := range comp.Blocks {
		for _, a := range b.AnchorIDs {
			pos[a] = bi
		}
	}
	if !(pos[0] > pos[2] && pos[0] > pos[3] && pos[1] > pos[2] && pos[1] > pos[3]) {
		t.Fatalf("hub did not move hot branches toward commit: %s (levels: b0=%.1f b1=%.1f a=%.1f)",
			comp, hub.Table().Level("branch/0"), hub.Table().Level("branch/1"), hub.Table().Level("account/0"))
	}

	// And the adapted composition still runs correctly.
	if err := exec.Execute(ctx, transferParams(0, 1, 5, 6, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestControllerRefreshFailsWhenClusterDown: a Hub of one executor reports a
// refresh whose stats query fails, and keeps the running composition.
func TestControllerRefreshFailsWhenClusterDown(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 2, 100)
	rt := c.Runtime(1, dtm.Config{Seed: 1, QuorumAttempts: 1, RequestTimeout: 50 * time.Millisecond})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	hub := acn.NewHub(rt, acn.HubConfig{})
	hub.Register(exec, acn.AlgoConfig{})

	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	before := exec.Composition()
	for i := 0; i < 4; i++ {
		c.Kill(quorum.NodeID(i))
	}
	if err := hub.RefreshOnce(context.Background()); err == nil {
		t.Fatal("refresh succeeded against a dead cluster")
	}
	// A failed refresh must leave the running composition untouched.
	if exec.Composition() != before {
		t.Fatal("failed refresh swapped the composition")
	}
}

// TestPartialAbortRerunKeepsEarlierBlocksVariables rolls back the second of
// two Blocks after a concurrent commit and checks the value it commits: the
// re-run must see Block 0's variables as Block 0 left them and recompute its
// own from scratch, which assign-once variables guarantee with no copy.
func TestPartialAbortRerunKeepsEarlierBlocksVariables(t *testing.T) {
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

	ref := func(id store.ObjectID) txir.RefFunc { return func(*txir.Env) store.ObjectID { return id } }
	coldRuns, hotRuns := 0, 0
	p := txir.NewProgram("rerun-vars")
	p.Read("cold", "cold", ref("cold"), "c") // anchor 0
	p.Local(func(e *txir.Env) error {
		coldRuns++
		e.SetInt64("acc", e.GetInt64("c"))
		return nil
	}, []txir.Var{"c"}, []txir.Var{"acc"})
	p.Read("hot", "hot", ref("hot"), "h") // anchor 1
	p.Local(func(e *txir.Env) error {
		if hotRuns++; hotRuns == 1 {
			// A concurrent commit invalidates "hot" after this Block read it.
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("hot", store.Int64(2))
			}); err != nil {
				return err
			}
		}
		e.SetInt64("acc2", e.GetInt64("acc")+e.GetInt64("h"))
		return nil
	}, []txir.Var{"acc", "h"}, []txir.Var{"acc2"})
	// The next read's incremental validation reports "hot" as stale.
	p.Read("tail", "tail", ref("tail"), "tl") // anchor 2
	p.Local(func(e *txir.Env) error {
		e.SetInt64("out", e.GetInt64("acc2")+e.GetInt64("tl"))
		return nil
	}, []txir.Var{"acc2", "tl"}, []txir.Var{"out"})
	p.Write("tail", "tail", ref("tail"), "out")

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
	if m := rt.Metrics().Snapshot(); m.SubAborts != 1 || m.ParentAborts != 0 {
		t.Fatalf("sub aborts = %d, parent aborts = %d; want 1 and 0", m.SubAborts, m.ParentAborts)
	}
	if coldRuns != 1 || hotRuns != 2 {
		t.Fatalf("Block 0's local ran %d times, Block 1's %d; want 1 and 2", coldRuns, hotRuns)
	}
	var tail int64
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("tail")
		tail = store.AsInt64(v)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if tail != 1+2+1 {
		t.Fatalf("tail = %d, want 4 (1 cold + 2 new hot + 1 tail), what a fresh run commits", tail)
	}
}
