package cluster_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/health"
	"qracn/internal/quorum"
	"qracn/internal/store"
)

// TestChaosConservation drives concurrent transfers while leaf nodes are
// killed, revived, and repaired at random. Whatever the failure
// interleaving, committed state must conserve the total balance — the
// one-copy-serializability invariant under faults. Protections left by
// clients caught mid-commit are healed by the lease.
func TestChaosConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const (
		accounts = 16
		initial  = int64(10_000)
		clients  = 6
		duration = 900 * time.Millisecond
	)
	c := cluster.New(cluster.Config{
		Servers:     10,
		StatsWindow: time.Hour,
		ProtectTTL:  50 * time.Millisecond,
	})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var commits atomic.Int64
	var wg sync.WaitGroup

	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rt := c.Runtime(ci+1, dtm.Config{
				Seed:        int64(ci) + 1,
				MaxAttempts: 200,
				BackoffBase: 20 * time.Microsecond,
				BackoffMax:  500 * time.Microsecond,
			})
			rng := rand.New(rand.NewSource(int64(ci) * 77))
			for ctx.Err() == nil {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				if err := transfer(ctx, rt, accounts, from, to); err == nil {
					commits.Add(1)
				}
				// Errors (quorum unavailable during a kill window, retry
				// exhaustion) are expected mid-chaos; keep driving.
			}
		}(ci)
	}

	// Chaos driver: kill/revive+repair leaf nodes (4..9); the root and
	// level 1 stay alive so write quorums remain formable.
	chaosRng := rand.New(rand.NewSource(99))
	down := map[quorum.NodeID]bool{}
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		node := quorum.NodeID(4 + chaosRng.Intn(6))
		if down[node] {
			if _, err := c.ReviveAndRepair(ctx, node, 0); err != nil {
				t.Errorf("repair %d: %v", node, err)
			}
			delete(down, node)
		} else if len(down) < 2 { // keep leaf majorities formable
			c.Kill(node)
			down[node] = true
		}
		time.Sleep(40 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	// Heal everything, then audit.
	for node := range down {
		if _, err := c.ReviveAndRepair(context.Background(), node, 0); err != nil {
			t.Fatalf("final repair %d: %v", node, err)
		}
	}
	time.Sleep(60 * time.Millisecond) // let protection leases of killed attempts lapse
	requireNoHolds(t, c.Nodes, "after chaos and the lease TTL")

	rt := c.Runtime(99, dtm.Config{Seed: 99})
	var total int64
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		total = 0
		for i := 0; i < accounts; i++ {
			v, err := tx.Read(store.ID("acct", i))
			if err != nil {
				return err
			}
			total += store.AsInt64(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved under chaos: %d, want %d (commits: %d)",
			total, accounts*initial, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("chaos run committed nothing")
	}
	t.Logf("chaos: %d commits under random leaf failures, balance conserved", commits.Load())
}

// TestChaosConservationDetectorOnly is the same chaos run with the liveness
// oracle withheld from the clients: node health is known only through each
// runtime's failure detector, as on a real network. Conservation must hold
// and progress must continue purely on detector-driven failover.
func TestChaosConservationDetectorOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const (
		accounts = 16
		initial  = int64(10_000)
		clients  = 6
		duration = 900 * time.Millisecond
	)
	c := cluster.New(cluster.Config{
		Servers:     10,
		StatsWindow: time.Hour,
		ProtectTTL:  50 * time.Millisecond,
	})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var commits atomic.Int64
	var failovers atomic.Uint64
	var wg sync.WaitGroup

	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rt := c.DetectorRuntime(ci+1, dtm.Config{
				Seed:        int64(ci) + 1,
				MaxAttempts: 200,
				BackoffBase: 20 * time.Microsecond,
				BackoffMax:  500 * time.Microsecond,
				// Short probe interval so revived nodes are readmitted well
				// within the chaos cadence.
				Health: health.New(health.Config{
					SuspectAfter:  3,
					ProbeInterval: 20 * time.Millisecond,
				}),
				RequestTimeout: time.Second,
			})
			rng := rand.New(rand.NewSource(int64(ci) * 131))
			for ctx.Err() == nil {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				if err := transfer(ctx, rt, accounts, from, to); err == nil {
					commits.Add(1)
				}
			}
			failovers.Add(rt.Metrics().Snapshot().Failovers)
		}(ci)
	}

	chaosRng := rand.New(rand.NewSource(42))
	down := map[quorum.NodeID]bool{}
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		node := quorum.NodeID(4 + chaosRng.Intn(6))
		if down[node] {
			if _, err := c.ReviveAndRepair(ctx, node, 0); err != nil {
				t.Errorf("repair %d: %v", node, err)
			}
			delete(down, node)
		} else if len(down) < 2 {
			c.Kill(node)
			down[node] = true
		}
		time.Sleep(40 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	for node := range down {
		if _, err := c.ReviveAndRepair(context.Background(), node, 0); err != nil {
			t.Fatalf("final repair %d: %v", node, err)
		}
	}
	time.Sleep(60 * time.Millisecond)
	requireNoHolds(t, c.Nodes, "after detector-only chaos and the lease TTL")

	rt := c.Runtime(99, dtm.Config{Seed: 99})
	var total int64
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		total = 0
		for i := 0; i < accounts; i++ {
			v, err := tx.Read(store.ID("acct", i))
			if err != nil {
				return err
			}
			total += store.AsInt64(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved under detector-only chaos: %d, want %d (commits: %d)",
			total, accounts*initial, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("detector-only chaos run committed nothing")
	}
	t.Logf("detector-only chaos: %d commits, %d failovers, balance conserved",
		commits.Load(), failovers.Load())
}
