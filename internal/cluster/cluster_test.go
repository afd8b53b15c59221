package cluster_test

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
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/wire"
	"qracn/internal/workload/bank"
)

func TestChannelClusterSeedReplication(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	seed := map[store.ObjectID]store.Value{"a": store.Bytes{1}}
	c.Seed(seed)
	// Mutating the caller's seed value must not reach any replica: Seed
	// deep-copies per node.
	seed["a"].(store.Bytes)[0] = 99
	for i, n := range c.Nodes {
		v, ver, err := n.Store().Get("a")
		if err != nil || ver != 1 {
			t.Fatalf("node %d: %v %d", i, err, ver)
		}
		if v.(store.Bytes)[0] != 1 {
			t.Fatalf("node %d shares backing state with the seed map", i)
		}
	}
}

func TestChannelClusterDefaults(t *testing.T) {
	c := cluster.New(cluster.Config{})
	defer c.Close()
	if len(c.Nodes) != 10 {
		t.Fatalf("default servers = %d, want 10", len(c.Nodes))
	}
	if c.Tree.Size() != 10 || c.Tree.Levels() != 3 {
		t.Fatalf("tree = %d nodes / %d levels", c.Tree.Size(), c.Tree.Levels())
	}
}

func TestKillReviveAffectsAlive(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4})
	defer c.Close()
	if !c.Net.Alive(2) {
		t.Fatal("node 2 should be alive")
	}
	c.Kill(2)
	if c.Net.Alive(2) {
		t.Fatal("node 2 should be down")
	}
	c.Revive(2)
	if !c.Net.Alive(2) {
		t.Fatal("node 2 should be back")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(5)})

	rt := c.Runtime(1, dtm.Config{Seed: 1})
	ctx := context.Background()
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Write("x", store.Int64(store.AsInt64(v)*2))
	}); err != nil {
		t.Fatal(err)
	}

	// A second client over its own TCP connections sees the commit.
	rt2 := c.Runtime(2, dtm.Config{Seed: 2})
	var got int64
	if err := rt2.Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		got = store.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("x = %d, want 10", got)
	}
}

func TestTCPClusterConcurrentClients(t *testing.T) {
	c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"ctr": store.Int64(0)})

	const clients, perClient = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := c.Runtime(i+1, dtm.Config{Seed: int64(i) + 1})
			for j := 0; j < perClient; j++ {
				if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
					v, err := tx.Read("ctr")
					if err != nil {
						return err
					}
					return tx.Write("ctr", store.Int64(store.AsInt64(v)+1))
				}); err != nil {
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

	rt := c.Runtime(9, dtm.Config{Seed: 9})
	var got int64
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
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
		t.Fatalf("ctr = %d, want %d (lost updates over TCP)", got, clients*perClient)
	}
}

// TestTCPClusterACNWorkload runs the full ACN stack — analysis, executor,
// controller with stats fetch — over real TCP connections.
func TestTCPClusterACNWorkload(t *testing.T) {
	w := bank.New(bank.Config{Branches: 4, Accounts: 16})
	c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Seed(w.SeedObjects())

	an, err := unitgraph.Analyze(bank.TransferProgram())
	if err != nil {
		t.Fatal(err)
	}
	rt := c.Runtime(1, dtm.Config{Seed: 4})
	exec := acn.NewExecutor(rt, an, acn.Static(an))
	hub := acn.NewHub(rt, acn.HubConfig{})
	hub.Register(exec, acn.AlgoConfig{})

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		params := map[string]any{
			"srcBranch": i % 4, "dstBranch": (i + 1) % 4,
			"srcAcct": i % 16, "dstAcct": (i + 1) % 16,
			"amount": 1,
		}
		if err := exec.Execute(ctx, params); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.RefreshOnce(ctx); err != nil {
		t.Fatalf("stats fetch over TCP: %v", err)
	}
	if exec.Composition() == nil || exec.Composition().NumBlocks() == 0 {
		t.Fatal("hub produced no composition")
	}
}

// TestRepairSkipsUpToDateObjects: a quorum read over replicas that agree on
// an object pushes no read-repair of it. "b" is current everywhere
// throughout; a commit leaves one leaf behind on "a", and the reader's sweeps
// push "a" to it — so the pushes had time to land, and none was of "b".
func TestRepairSkipsUpToDateObjects(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1)})
	var mu sync.Mutex
	pushed := map[store.ObjectID]int{}
	c.Net.SetFault(func(_ quorum.NodeID, req *wire.Request) transport.Fault {
		if req.Kind == wire.KindRepair {
			mu.Lock()
			pushed[req.Repair.Object]++
			mu.Unlock()
		}
		return transport.Fault{}
	})
	pushes := func(id store.ObjectID) int {
		mu.Lock()
		defer mu.Unlock()
		return pushed[id]
	}
	ctx := context.Background()
	reader := c.Runtime(1, dtm.Config{Seed: 1})
	sweep := func() {
		t.Helper()
		if err := reader.Atomic(ctx, func(tx *dtm.Tx) error {
			for _, id := range []store.ObjectID{"a", "b"} {
				if _, err := tx.Read(id); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // successive seeds: every member is read
		sweep()
	}
	writer := c.Runtime(2, dtm.Config{Seed: 2, NoRepair: true})
	if err := writer.Atomic(ctx, func(tx *dtm.Tx) error { return tx.Write("a", store.Int64(2)) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pushes("a") == 0 && time.Now().Before(deadline) {
		sweep()
		time.Sleep(time.Millisecond)
	}
	if pushes("a") == 0 {
		t.Fatal("a replica left behind by the commit was never pushed: the zero below would prove nothing")
	}
	if n := pushes("b"); n != 0 {
		t.Fatalf("%d repairs pushed an object every replica holds current", n)
	}
}
