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
	ctrl := acn.NewController(exec, acn.ControllerConfig{Interval: time.Hour})

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

	if err := ctrl.RefreshOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if ctrl.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", ctrl.Refreshes())
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
		t.Fatalf("controller did not move hot branches toward commit: %s (levels: b0=%.1f b1=%.1f a=%.1f)",
			comp, ctrl.Table().Level("branch/0"), ctrl.Table().Level("branch/1"), ctrl.Table().Level("account/0"))
	}

	// And the adapted composition still runs correctly.
	if err := exec.Execute(ctx, transferParams(0, 1, 5, 6, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestControllerStartStop(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: 20 * time.Millisecond})
	defer c.Close()
	seedBank(c, 2, 2, 1000)
	rt := c.Runtime(1, dtm.Config{Seed: 3})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	ctrl := acn.NewController(exec, acn.ControllerConfig{Interval: 5 * time.Millisecond})

	ctx := context.Background()
	if err := exec.Execute(ctx, transferParams(0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	ctrl.Start(ctx)
	ctrl.Start(ctx) // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for ctrl.Refreshes() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("controller never refreshed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctrl.Stop()
	ctrl.Stop() // idempotent
	n := ctrl.Refreshes()
	time.Sleep(30 * time.Millisecond)
	if ctrl.Refreshes() != n {
		t.Fatal("controller kept refreshing after Stop")
	}
}

// TestControllerRestartsAfterItsContextEnds: a loop whose context ended has
// exited, so a later Start runs a new one without a Stop in between. It used
// to stay marked as started, and every later Start did nothing.
func TestControllerRestartsAfterItsContextEnds(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: 20 * time.Millisecond})
	defer c.Close()
	seedBank(c, 2, 2, 1000)
	rt := c.Runtime(1, dtm.Config{Seed: 3})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	ctrl := acn.NewController(exec, acn.ControllerConfig{Interval: 5 * time.Millisecond})
	defer ctrl.Stop()
	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	ctrl.Start(ended)
	// The first loop exits on its own; until it has, Start is a no-op, so keep
	// asking until a live loop refreshes.
	deadline := time.Now().Add(2 * time.Second)
	for ctrl.Refreshes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Start never ran a new loop after the first one's context ended")
		}
		ctrl.Start(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
}

func TestControllerPiggybackHooks(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 2, 1000)

	var ctrl *acn.Controller
	rt := c.Runtime(1, dtm.Config{
		Seed:             3,
		StatsEveryNReads: 1,
		StatsWanted: func() []store.ObjectID {
			if ctrl == nil {
				return nil
			}
			return ctrl.Wanted()
		},
		StatsSink: func(levels map[store.ObjectID]float64) {
			if ctrl != nil {
				ctrl.Sink(levels)
			}
		},
	})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	ctrl = acn.NewController(exec, acn.ControllerConfig{Interval: time.Hour, TableAlpha: 1})

	ctx := context.Background()
	// First execution populates samplers; the second piggybacks stats.
	for i := 0; i < 2; i++ {
		if err := exec.Execute(ctx, transferParams(0, 1, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Every first access was a read-ahead hit, so the batched rounds are the
	// only reads there were to carry the query.
	if m := rt.Metrics().Snapshot(); m.RemoteReads != 2 || m.BatchReads != 2 {
		t.Fatalf("rounds = %d, batched = %d; want 2 and 2 (no plain read)", m.RemoteReads, m.BatchReads)
	}
	// Four write-commits happened (branch/account writes), so the table
	// should have observed non-zero contention for at least one object.
	ids := ctrl.Wanted()
	if len(ids) == 0 {
		t.Fatal("controller wants no stats despite sampled objects")
	}
	some := false
	for _, id := range ids {
		if ctrl.Table().Level(id) > 0 {
			some = true
		}
	}
	if !some {
		t.Fatal("piggybacked stats never reached the controller table")
	}
}

func TestControllerRefreshFailsWhenClusterDown(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	seedBank(c, 2, 2, 100)
	rt := c.Runtime(1, dtm.Config{Seed: 1, QuorumAttempts: 1, RequestTimeout: 50 * time.Millisecond})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	ctrl := acn.NewController(exec, acn.ControllerConfig{Interval: time.Hour})

	if err := exec.Execute(context.Background(), transferParams(0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	before := exec.Composition()
	for i := 0; i < 4; i++ {
		c.Kill(quorum.NodeID(i))
	}
	if err := ctrl.RefreshOnce(context.Background()); err == nil {
		t.Fatal("refresh succeeded against a dead cluster")
	}
	// A failed refresh must leave the running composition untouched.
	if exec.Composition() != before {
		t.Fatal("failed refresh swapped the composition")
	}
}
