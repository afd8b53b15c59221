package acn_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
)

func TestHubSharedAdaptation(t *testing.T) {
	w := bank.New(bank.Config{Branches: 4, Accounts: 100, HotBranches: 2})
	// The nodes' stats window runs on a clock the test advances, so where
	// the window boundary falls does not depend on how fast the host
	// commits the warm-up transfers.
	const window = 50 * time.Millisecond
	start := time.Now()
	var elapsed atomic.Int64
	c := cluster.New(cluster.Config{
		Servers:     10,
		StatsWindow: window,
		Now:         func() time.Time { return start.Add(time.Duration(elapsed.Load())) },
	})
	defer c.Close()
	c.Seed(w.SeedObjects())

	rt := c.Runtime(1, dtm.Config{Seed: 5})
	hub := acn.NewHub(rt, acn.HubConfig{})

	var execs []*acn.Executor
	for _, prof := range w.Profiles() {
		an, err := unitgraph.Analyze(prof.Program)
		if err != nil {
			t.Fatal(err)
		}
		exec := acn.NewExecutor(rt, an, acn.Static(an))
		execs = append(execs, exec)
		hub.Register(exec, acn.AlgoConfig{})
	}

	ctx := context.Background()
	transfer := func(i int) map[string]any {
		return map[string]any{
			"srcBranch": i % 2, "dstBranch": (i + 1) % 2,
			"srcAcct": i % 100, "dstAcct": (i + 37) % 100,
			"amount": 1,
		}
	}
	// Drive write traffic through the transfer profile only; the hot
	// branches become hot in the *shared* table.
	for i := 0; i < 40; i++ {
		if err := execs[bank.ProfileTransfer].Execute(ctx, transfer(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly one window later: the warm-up becomes the last completed
	// window, the one whose counts the nodes report.
	elapsed.Add(int64(window))
	for i := 0; i < 10; i++ {
		if err := execs[bank.ProfileTransfer].Execute(ctx, transfer(i)); err != nil {
			t.Fatal(err)
		}
		// The read-only balance profile touches the same branches.
		if err := execs[bank.ProfileBalance].Execute(ctx, map[string]any{
			"srcBranch": i % 2, "srcAcct": i % 100,
		}); err != nil {
			t.Fatal(err)
		}
	}

	if err := hub.RefreshOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// The transfer profile must have moved branches toward commit.
	comp := execs[bank.ProfileTransfer].Composition()
	pos := map[int]int{}
	for bi, b := range comp.Blocks {
		for _, a := range b.AnchorIDs {
			pos[a] = bi
		}
	}
	if !(pos[0] > pos[2] && pos[1] > pos[3]) {
		t.Fatalf("transfer profile did not adapt: %s (branch level %.1f)",
			comp, hub.Table().Level(store.ID("branch", 0)))
	}
	// The balance profile shares the table: its branch block (anchor 0)
	// must also now run after its account block (anchor 1), even though all
	// write traffic flowed through the *other* profile.
	bcomp := execs[bank.ProfileBalance].Composition()
	bpos := map[int]int{}
	for bi, b := range bcomp.Blocks {
		for _, a := range b.AnchorIDs {
			bpos[a] = bi
		}
	}
	if bpos[0] <= bpos[1] {
		t.Fatalf("balance profile did not benefit from shared contention: %s", bcomp)
	}
	// And the shared table actually knows the hot branches.
	if hub.Table().Level(store.ID("branch", 0)) <= 0 {
		t.Fatal("shared table has no branch contention")
	}
}

func TestHubWantedUnion(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1), "y": store.Int64(1)})
	rt := c.Runtime(1, dtm.Config{Seed: 2})
	hub := acn.NewHub(rt, acn.HubConfig{TableAlpha: 1})

	mk := func(name, obj string) *acn.Executor {
		p := newSingleReadProgram(name, obj)
		an, err := unitgraph.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		e := acn.NewExecutor(rt, an, acn.Static(an))
		hub.Register(e, acn.AlgoConfig{})
		return e
	}
	e1, e2 := mk("p1", "x"), mk("p2", "y")
	ctx := context.Background()
	if err := e1.Execute(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.Execute(ctx, nil); err != nil {
		t.Fatal(err)
	}
	ids := hub.Wanted()
	if len(ids) != 2 {
		t.Fatalf("Wanted = %v, want union of both profiles", ids)
	}
	hub.Sink(map[store.ObjectID]float64{"x": 5})
	if hub.Table().Level("x") != 5 {
		t.Fatal("Sink did not reach the shared table")
	}
	if err := hub.RefreshOnce(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHubLevelsComeFromTheOwningGroup: under a shard map a node's meter counts
// only the writes its own group applied, so the level of an object must come
// from that object's group. A Hub wired with the deprecated piggyback settings,
// as the harness once wired it, keeps what its refresh learnt about a row of
// group 0 while transactions read only a row of group 1; when every such read
// carried the stats query, a group-1 member answered 0 for the group-0 row and
// each answer pulled the table toward it.
func TestHubLevelsComeFromTheOwningGroup(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 20, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	var a, b store.ObjectID
	for i := 0; a == "" || b == ""; i++ {
		switch id := store.ID("k", i); c.Shards.ShardFor(id) {
		case 0:
			a = id
		case 1:
			b = id
		}
	}
	c.Seed(map[store.ObjectID]store.Value{a: store.Int64(0), b: store.Int64(0)})

	var hub *acn.Hub
	rt := c.Runtime(1, dtm.Config{
		Seed:             4,
		StatsEveryNReads: 1,
		StatsWanted:      func() []store.ObjectID { return hub.Wanted() },
		StatsSink:        func(levels map[store.ObjectID]float64) { hub.Sink(levels) },
	})
	hub = acn.NewHub(rt, acn.HubConfig{})
	register := func(p *txir.Program) *acn.Executor {
		an, err := unitgraph.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		e := acn.NewExecutor(rt, an, acn.Static(an))
		hub.Register(e, acn.AlgoConfig{})
		return e
	}
	ref := func(id store.ObjectID) txir.RefFunc { return func(*txir.Env) store.ObjectID { return id } }
	bump := txir.NewProgram("bump")
	bump.Read("a", "a", ref(a), "va")
	bump.Read("b", "b", ref(b), "vb")
	bump.Local(func(e *txir.Env) error {
		e.SetInt64("next", e.GetInt64("va")+1)
		return nil
	}, []txir.Var{"va"}, []txir.Var{"next"})
	bump.Write("a", "a", ref(a), "next")
	writer, reader := register(bump), register(newSingleReadProgram("readB", string(b)))

	ctx := context.Background()
	const writes, reads = 5, 5
	for i := 0; i < writes; i++ {
		if err := writer.Execute(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.RefreshOnce(ctx); err != nil {
		t.Fatal(err)
	}
	level := hub.Table().Level(a)
	fetched, err := rt.FetchStats(ctx, []store.ObjectID{a})
	if err != nil {
		t.Fatal(err)
	}
	if level <= 0 || level != fetched[a] {
		t.Fatalf("level of %s after the refresh = %v, want the owning group's count %v > 0", a, level, fetched[a])
	}
	for i := 0; i < reads; i++ {
		if err := reader.Execute(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.Table().Level(a); got != level {
		t.Fatalf("level of %s = %v after %d reads of %s in the other group, want %v unchanged", a, got, reads, b, level)
	}
}

func newSingleReadProgram(name, obj string) *txir.Program {
	p := txir.NewProgram(name)
	id := store.ObjectID(obj)
	p.Read(obj, obj, func(*txir.Env) store.ObjectID { return id }, "v")
	return p
}

// TestHubAndControllerAuditAlike: two refresh cycles — the first swaps the
// Block sequence, the second reproduces it and is skipped — leave one audit
// each, stamped "manual" (the Hub used to stamp "interval" on a RefreshOnce
// call). The Controller this test once compared the audit with is gone:
// RefreshOnce is the only refresh, so there is no second audit to match.
func TestHubAndControllerAuditAlike(t *testing.T) {
	an := analyze(t)
	const window = 50 * time.Millisecond
	start := time.Now()
	var elapsed atomic.Int64
	c := cluster.New(cluster.Config{
		Servers:     10,
		StatsWindow: window,
		Now:         func() time.Time { return start.Add(time.Duration(elapsed.Load())) },
	})
	defer c.Close()
	seedBank(c, 2, 100, 100000)
	rt := c.Runtime(1, dtm.Config{Seed: 5})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	hub := acn.NewHub(rt, acn.HubConfig{})
	hub.Register(exec, acn.AlgoConfig{})

	ctx := context.Background()
	for i := 0; i < 60; i++ {
		if err := exec.Execute(ctx, transferParams(0, 1, i%100, (i+37)%100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed.Add(int64(window))
	for i := 0; i < 2; i++ {
		if err := hub.RefreshOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}

	byHub := rt.Forensics().Recomposes()
	if len(byHub) != 2 || !byHub[0].Applied || byHub[1].Applied || byHub[0].Trigger != "manual" {
		t.Fatalf("hub decisions = %+v, want one applied then one skipped, both by hand", byHub)
	}
}

// TestHubDeliveryShardedComposition pins what the algorithm module makes of
// the delivery-sharded benchmark's inputs (TPC-C Delivery over four quorum
// groups): the dependency chain dlv → order → customer stays three Blocks, and
// every merge it declines is declined for dissimilar contention — the written
// cursor and customer rows against the order row nothing writes.
func TestHubDeliveryShardedComposition(t *testing.T) {
	w := tpcc.New(tpcc.Config{Warehouses: 4, Districts: 10, CustomersPerDistrict: 20, Items: 100, MixDelivery: 100})
	const window = 50 * time.Millisecond
	start := time.Now()
	var elapsed atomic.Int64
	c := cluster.New(cluster.Config{
		Servers:     10,
		Shards:      4,
		StatsWindow: window,
		Now:         func() time.Time { return start.Add(time.Duration(elapsed.Load())) },
	})
	defer c.Close()
	c.Seed(w.SeedObjects())

	rt := c.Runtime(1, dtm.Config{Seed: 5})
	if m := rt.ShardMap(); m == nil || m.NumShards() != 4 {
		t.Fatalf("shard map %v, want four groups", m)
	}
	an, err := unitgraph.Analyze(w.Profiles()[tpcc.ProfileDelivery].Program)
	if err != nil {
		t.Fatal(err)
	}
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	hub := acn.NewHub(rt, acn.HubConfig{})
	hub.Register(exec, acn.AlgoConfig{})

	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for refresh := 0; refresh < 2; refresh++ {
		for i := 0; i < 100; i++ {
			prof, params := w.Generate(rng, 0)
			if prof != tpcc.ProfileDelivery {
				t.Fatalf("generated profile %d, want Delivery only", prof)
			}
			if err := exec.Execute(ctx, params); err != nil {
				t.Fatal(err)
			}
		}
		// The window just driven becomes the last completed one, the one
		// whose counts the nodes report.
		elapsed.Add(int64(window))
		if err := hub.RefreshOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if got := exec.Composition().String(); got != "[0][1][2]" {
		t.Fatalf("composition %s, want [0][1][2]", got)
	}
	decisions := rt.Forensics().Recomposes()
	if len(decisions) != 2 {
		t.Fatalf("%d recompose decisions, want 2", len(decisions))
	}
	for _, d := range decisions {
		if d.Levels[0].Level == 0 || d.Levels[2].Level == 0 {
			t.Fatalf("levels %+v: the written dlv and customer rows show no contention", d.Levels)
		}
		if len(d.Refusals) != 2 {
			t.Fatalf("refusals %+v, want the two adjacent pairs", d.Refusals)
		}
		for _, r := range d.Refusals {
			if r.Reason != forensics.RefusalSimilarity {
				t.Fatalf("refusal %+v (%s), want similarity-threshold only", r, r.Reason)
			}
		}
	}
}

// TestHubConcurrentRegisterRefreshAndLoop drives the one adaptation path
// from every side at once — a goroutine refreshing one Hub in a tight loop
// while workers refresh it too, a second Hub gaining profiles while it
// refreshes, and transactions running through Block sequences being swapped
// under them — for the race detector, and checks that no transfer was lost.
func TestHubConcurrentRegisterRefreshAndLoop(t *testing.T) {
	an := analyze(t)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: 5 * time.Millisecond})
	defer c.Close()
	seedBank(c, 2, 8, 1000)
	rt := c.Runtime(1, dtm.Config{Seed: 3})
	ctx := context.Background()

	first := acn.NewExecutor(rt, an, acn.Static(an))
	looping := acn.NewHub(rt, acn.HubConfig{})
	looping.Register(first, acn.AlgoConfig{})
	loopCtx, stopLoop := context.WithCancel(ctx)
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for loopCtx.Err() == nil {
			_ = looping.RefreshOnce(loopCtx) // a cancelled refresh ends the loop
		}
	}()
	hub := acn.NewHub(rt, acn.HubConfig{})

	const workers, rounds = 3, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			exec := acn.NewExecutor(rt, an, acn.Static(an))
			hub.Register(exec, acn.AlgoConfig{})
			for i := 0; i < rounds; i++ {
				for _, e := range []*acn.Executor{exec, first} {
					if err := e.Execute(ctx, transferParams(i%2, (i+1)%2, (g+i)%8, (g+i+3)%8, 1)); err != nil {
						errs <- err
						return
					}
				}
				_ = hub.Wanted()
				if err := hub.RefreshOnce(ctx); err != nil {
					errs <- err
					return
				}
				if err := looping.RefreshOnce(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stopLoop()
	<-loopDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := hub.Refreshes(); got != workers*rounds {
		t.Fatalf("hub refreshes = %d, want %d", got, workers*rounds)
	}
	if got := looping.Refreshes(); got < workers*rounds {
		t.Fatalf("looping hub refreshes = %d, want at least the %d by hand", got, workers*rounds)
	}
	if b, a := totalMoney(t, rt, 2, 8); b != 2000 || a != 8000 {
		t.Fatalf("money not conserved under concurrent refreshes: %d/%d", b, a)
	}
}
