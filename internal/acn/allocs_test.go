package acn_test

import (
	"context"
	"strconv"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/raceflag"
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/wire"
	"qracn/internal/workload/tpcc"
)

// TestNewOrderAllocsBounded pins the allocation budget of the benchmark's
// main transaction: one uncontended TPC-C NewOrder through Executor.Execute
// under acn.Static (one Block per anchor: 14 sub-transactions, one batched
// read-ahead round and no plain read — the order row is written blind — seven
// prepares and seven decisions) on the benchmark's cluster shape with every
// message really encoded and decoded, no simulated latency, read-repair off.
// The ceiling sits a few allocations above what the change that made a write
// quorum one slice measured (591; 596 when each level's majority was a slice
// of its own, 600 when each object of a read-ahead was tallied through a
// rebuilt one-object reply, 604 with a child context per Block and a copied
// write set, 898 when the read-ahead was a batch of one-object sub-reads, 932
// before the order row stopped being read); the change that introduced the
// test measured 948, and its parent allocated 1,633.
func TestNewOrderAllocsBounded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation ceilings measure the race detector under -race")
	}
	w := tpcc.New(tpcc.Config{Warehouses: 1, Districts: 4})
	c := cluster.New(cluster.Config{Servers: 10, Degree: 3, StatsWindow: time.Hour,
		Network: transport.ChannelConfig{Seed: 1, Codec: wire.Binary}})
	defer c.Close()
	c.Seed(w.SeedObjects())
	an, err := unitgraph.Analyze(tpcc.NewOrderProgram())
	if err != nil {
		t.Fatal(err)
	}
	exec := acn.NewExecutor(c.Runtime(1, dtm.Config{Seed: 1, NoRepair: true}), an, acn.Static(an))
	ctx := context.Background()
	i := 0
	newOrder := func() {
		i++
		params := map[string]any{"w": 0, "d": i % 4, "c": i % 20}
		for k := 0; k < tpcc.OrderLines; k++ {
			params["i"+strconv.Itoa(k)] = (7*i + 13*k) % 100
			params["q"+strconv.Itoa(k)] = 1 + k
		}
		if err := exec.Execute(ctx, params); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 100; k++ { // pools, samplers and maps warm
		newOrder()
	}
	const max = 596
	if allocs := testing.AllocsPerRun(100, newOrder); allocs > max {
		t.Errorf("uncontended NewOrder under acn.Static: %.1f allocs, want <= %d", allocs, max)
	}
}
