package dtm_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/raceflag"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// TestAtomicAllocsBounded pins the allocation budget of the two smallest
// transactions on the benchmark's cluster shape (ten servers, degree 3,
// every message really encoded and decoded, no simulated latency):
// a read-only transaction is one quorum read round and one validation round,
// a read-modify-write one read round, seven prepares and seven decisions.
// Read-repair is off so that nothing allocates in the background. The
// ceilings sit a few allocations above what the change that introduced them
// measured (76 and 285; its parent: 96 and 349); ROADMAP item 3 wants the
// second at 200 and says where the rest is.
func TestAtomicAllocsBounded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation ceilings measure the race detector under -race")
	}
	c := cluster.New(cluster.Config{Servers: 10, Degree: 3, StatsWindow: time.Hour,
		Network: transport.ChannelConfig{Seed: 1, Codec: wire.Binary}})
	defer c.Close()
	ids := make([]store.ObjectID, 64)
	seed := map[store.ObjectID]store.Value{}
	for i := range ids {
		ids[i] = store.ID("obj", i)
		seed[ids[i]] = store.Tuple{store.Int64(int64(i)), store.Int64(0)}
	}
	c.Seed(seed)
	rt := c.Runtime(1, dtm.Config{Seed: 1, NoRepair: true})
	ctx := context.Background()
	i := 0
	readOnly := func() {
		i++
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			_, err := tx.Read(ids[i%len(ids)])
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	readModifyWrite := func() {
		i++
		id := ids[i%len(ids)]
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			if _, err := tx.Read(id); err != nil {
				return err
			}
			return tx.Write(id, store.Int64(int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2*len(ids); k++ { // every row written once, pools warm
		readModifyWrite()
	}
	for _, tc := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"read-only", readOnly, 80},
		{"read-modify-write", readModifyWrite, 292},
	} {
		if allocs := testing.AllocsPerRun(200, tc.run); allocs > tc.max {
			t.Errorf("%s transaction: %.1f allocs, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}
