package acn_test

import (
	"context"
	"strconv"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
	"qracn/internal/workload/tpcc"
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

// readRounds runs one uncontended invocation and returns what it cost in
// quorum read rounds, batched rounds among them, and read-ahead objects.
func readRounds(t *testing.T, exec *acn.Executor, params map[string]any) [3]uint64 {
	t.Helper()
	m := exec.Runtime().Metrics()
	before := m.Snapshot()
	if err := exec.Execute(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()
	return [3]uint64{
		after.RemoteReads - before.RemoteReads,
		after.BatchReads - before.BatchReads,
		after.PrefetchedObjects - before.PrefetchedObjects,
	}
}

// TestPrefetchPerBlockRounds pins the rule that replaced per-Block prefetch:
// the decomposition decides what is rolled back, not how many round trips are
// paid. Whatever Block sequence runs the program — one Block per anchor, one
// Block for everything, the programmer's grouping, a recomposed and reordered
// sequence — an uncontended invocation pays the same quorum read rounds: one
// batched round for every object the parameters name, plus one plain read per
// object keyed by a value read inside the transaction and read, not only
// written.
func TestPrefetchPerBlockRounds(t *testing.T) {
	w := tpcc.New(tpcc.Config{Warehouses: 4, Districts: 4})
	newOrder := w.Profiles()[tpcc.ProfileNewOrder]
	delivery := w.Profiles()[tpcc.ProfileDelivery]
	newOrderParams := map[string]any{"w": 1, "d": 2, "c": 3}
	for k := 0; k < tpcc.OrderLines; k++ {
		newOrderParams["i"+strconv.Itoa(k)] = 10 + k
		newOrderParams["q"+strconv.Itoa(k)] = 1 + k
	}
	cases := []struct {
		name    string
		program *txir.Program
		manual  [][]int
		seed    map[store.ObjectID]store.Value
		shards  int
		params  map[string]any
		// hot is the anchor the recomposed variant is told is contended, so
		// the algorithm merges around it and sorts it last.
		hot  int
		want [3]uint64 // RemoteReads, BatchReads, PrefetchedObjects
	}{
		{
			name: "bank-transfer", program: transferProgram(), manual: [][]int{{0, 1}, {2}, {3}},
			seed: bankObjects(2, 4, 1000), params: transferParams(0, 1, 0, 1, 5),
			hot: 0, want: [3]uint64{1, 1, 4},
		},
		{
			// 13 rows named by parameters in one round. The order row is
			// keyed by the id read from the district row and only written,
			// so nothing reads it.
			name: "tpcc-new-order", program: newOrder.Program, manual: newOrder.Manual,
			seed: w.SeedObjects(), params: newOrderParams,
			hot: 1, want: [3]uint64{1, 1, 13},
		},
		{
			// dlv cursor and customer in one round although different quorum
			// groups own them; then the order row the cursor names.
			name: "tpcc-delivery-4-shards", program: delivery.Program, manual: delivery.Manual,
			seed: w.SeedObjects(), shards: 4, params: map[string]any{"w": 1, "d": 2, "c": 3, "amount": 7},
			hot: 2, want: [3]uint64{2, 1, 2},
		},
	}
	for _, tc := range cases {
		an, err := unitgraph.Analyze(tc.program)
		if err != nil {
			t.Fatal(err)
		}
		manual, err := acn.Manual(an, tc.manual)
		if err != nil {
			t.Fatal(err)
		}
		recomposed := acn.NewAlgorithm(an, acn.AlgoConfig{}).Recompose(func(anchor int) float64 {
			if anchor == tc.hot {
				return 40
			}
			return 1
		})
		if recomposed.String() == acn.Static(an).String() {
			t.Fatalf("%s: recomposition left the static sequence %s untouched", tc.name, recomposed)
		}
		comps := map[string]*acn.Composition{
			"static": acn.Static(an), "flat": acn.Flat(an), "manual": manual, "recomposed": recomposed,
		}
		for name, comp := range comps {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				servers := 10
				if tc.shards > 1 {
					servers = 4 * tc.shards
				}
				c := cluster.New(cluster.Config{Servers: servers, Shards: tc.shards, StatsWindow: time.Hour})
				defer c.Close()
				c.Seed(tc.seed)
				exec := acn.NewExecutor(c.Runtime(1, dtm.Config{Seed: 7}), an, comp)
				if m := exec.Runtime().ShardMap(); m != nil &&
					m.ShardFor(store.ID("dlv", 1, 2)) == m.ShardFor(store.ID("customer", 1, 2, 3)) {
					t.Fatal("the batched round no longer spans two quorum groups: pick other parameters")
				}
				if got := readRounds(t, exec, tc.params); got != tc.want {
					t.Fatalf("%s: rounds/batched/objects = %v, want %v", comp, got, tc.want)
				}
				// Counts, not timings: they repeat exactly.
				if got := readRounds(t, exec, tc.params); got != tc.want {
					t.Fatalf("%s, second invocation: rounds/batched/objects = %v, want %v", comp, got, tc.want)
				}
			})
		}
	}
}

// chainProgram has reads whose object references depend on a value computed
// inside the transaction: those anchors cannot be read ahead before the Block
// that computes the value has run, while the independent anchors still batch.
func chainProgram() *txir.Program {
	p := txir.NewProgram("chain")
	p.ReadP("dir", "d", "slot") // anchor 0: parameter ref
	p.Local(func(e *txir.Env) error {
		e.SetInt64("k", e.GetInt64("d")+1)
		return nil
	}, []txir.Var{"d"}, []txir.Var{"k"})
	byK := func(class string) txir.RefFunc {
		return func(e *txir.Env) store.ObjectID { return store.ID(class, e.GetInt64("k")) }
	}
	p.Read("obj", "k", byK("obj"), "v", "k")   // anchor 1: depends on k
	p.Read("peer", "k", byK("peer"), "u", "k") // anchor 2: depends on k
	p.ReadP("other", "o", "slot")              // anchor 3: parameter ref
	return p
}

func TestPrefetchSkipsDataDependentRefs(t *testing.T) {
	an, err := unitgraph.Analyze(chainProgram())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		comp *acn.Composition
		want [3]uint64 // RemoteReads, BatchReads, PrefetchedObjects
	}{
		// One Block: k is computed inside it, so after the round for dir and
		// other each link pays its own read.
		{acn.Flat(an), [3]uint64{3, 1, 2}},
		// One Block per anchor: dir and other at the first entry; k is
		// defined in dir's Block, so both links are fetched together at the
		// entry of the Block after it.
		{acn.Static(an), [3]uint64{2, 2, 4}},
	} {
		c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
		c.Seed(map[store.ObjectID]store.Value{
			store.ID("dir", 0):          store.Int64(41),
			store.ID("obj", int64(42)):  store.Int64(7),
			store.ID("peer", int64(42)): store.Int64(8),
			store.ID("other", 0):        store.Int64(9),
		})
		exec := acn.NewExecutor(c.Runtime(1, dtm.Config{Seed: 3}), an, tc.comp)
		if got := readRounds(t, exec, map[string]any{"slot": 0}); got != tc.want {
			t.Errorf("%s: rounds/batched/objects = %v, want %v", tc.comp, got, tc.want)
		}
		c.Close()
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
