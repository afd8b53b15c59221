package cluster_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/store"
	"qracn/internal/transport"
)

// TestChaosRootFirstNoMutualRefusal: four runtimes, two workers each, move
// money between the same two rows, so every transaction conflicts with every
// other. Their prepares are refused often enough that all four runtimes switch
// to root-first rounds, and from then on a lock-conflict abort names a witness
// that went on to commit: a transaction holds a member's protection only once
// the root has voted yes, so two transactions can no longer refuse each other.
// (Not quite every witness: a winner's commit decision reaches the root
// before some other member once in a while, the next winner of the root then
// meets the old protection there and aborts after all — hence a bound, which
// the parallel fan-out of the first phase exceeds many times over.) The money
// is conserved and no protection is left behind.
func TestChaosRootFirstNoMutualRefusal(t *testing.T) {
	if testing.Short() {
		t.Skip("contention run skipped in -short mode")
	}
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour,
		Network: transport.ChannelConfig{Latency: 50 * time.Microsecond, Jitter: 25 * time.Microsecond, Seed: 1}})
	defer c.Close()
	const total = int64(2000)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(total / 2), "b": store.Int64(total / 2)})

	rts := make([]*dtm.Runtime, 4)
	for i := range rts {
		rts[i] = c.Runtime(i+1, dtm.Config{Seed: int64(i + 1), NoRepair: true,
			BackoffBase: 50 * time.Microsecond, BackoffMax: time.Millisecond})
	}
	var mu sync.Mutex
	committed := map[string]bool{}
	ctx := context.Background()
	transfer := func(rt *dtm.Runtime) {
		var id string
		err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			id = tx.ID()
			av, err := tx.Read("a")
			if err != nil {
				return err
			}
			bv, err := tx.Read("b")
			if err != nil {
				return err
			}
			if err := tx.Write("a", store.Int64(store.AsInt64(av)-1)); err != nil {
				return err
			}
			return tx.Write("b", store.Int64(store.AsInt64(bv)+1))
		})
		if err != nil {
			t.Errorf("transfer: %v", err)
			return
		}
		mu.Lock()
		committed[id] = true
		mu.Unlock()
	}
	// hammer runs two workers per runtime until done says stop; a worker
	// finishes the transfer it is in, so nothing is cancelled mid-commit.
	hammer := func(done func() bool) {
		var wg sync.WaitGroup
		for _, rt := range rts {
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done() && !t.Failed() {
						transfer(rt)
					}
				}()
			}
		}
		wg.Wait()
	}
	// witnessed returns how many lock-conflict aborts recorded since from name
	// a witness, and how many of those witnesses did not commit.
	witnessed := func(from time.Time) (named, lost int) {
		for _, rt := range rts {
			for _, e := range rt.Forensics().Aborts() {
				holder, _ := forensics.SplitWitness(e.ConflictingTxID)
				if e.At.Before(from) || e.Cause != forensics.CauseLockConflict || holder == "" {
					continue
				}
				named++
				if !committed[holder] {
					lost++
				}
			}
		}
		return named, lost
	}

	start := time.Now()
	deadline := start.Add(20 * time.Second)
	hammer(func() bool {
		for _, rt := range rts {
			if rt.Metrics().RootFirstRounds.Load() == 0 {
				return time.Now().After(deadline)
			}
		}
		return true
	})
	before := make([]dtm.Snapshot, len(rts))
	for i, rt := range rts {
		if before[i] = rt.Metrics().Snapshot(); before[i].RootFirstRounds == 0 {
			t.Fatalf("runtime %d never sent a root-first round: %d of its %d prepare rounds were refused",
				i+1, before[i].PrepareFails, before[i].Prepares)
		}
	}
	named1, lost1 := witnessed(start)

	phaseTwo := time.Now()
	var transfers atomic.Int64
	hammer(func() bool { return transfers.Add(1) > 1500 })
	for i, rt := range rts {
		m := rt.Metrics().Snapshot()
		if rounds, rootFirst := m.Prepares-before[i].Prepares, m.RootFirstRounds-before[i].RootFirstRounds; rounds != rootFirst {
			t.Fatalf("runtime %d sent %d of its %d prepare rounds root-first in the second phase: it fell back to the parallel fan-out under full contention",
				i+1, rootFirst, rounds)
		}
	}
	named2, lost2 := witnessed(phaseTwo)
	t.Logf("lock-conflict aborts whose witness did not commit: %d of %d while switching over, %d of %d root-first", lost1, named1, lost2, named2)
	if named2 < 100 {
		t.Fatalf("only %d witnessed lock-conflict aborts in the second phase: the rows were not contended", named2)
	}
	if lost2*20 > named2 {
		t.Fatalf("%d of %d lock-conflict aborts name a witness that did not commit, want at most 5%%", lost2, named2)
	}

	audit := c.Runtime(9, dtm.Config{Seed: 9, NoRepair: true})
	var sum int64
	if err := audit.Atomic(ctx, func(tx *dtm.Tx) error {
		sum = 0
		for _, id := range []store.ObjectID{"a", "b"} {
			v, err := tx.Read(id)
			if err != nil {
				return err
			}
			sum += store.AsInt64(v)
		}
		return nil
	}); err != nil || sum != total {
		t.Fatalf("audit read %d (%v), want the seeded %d", sum, err, total)
	}
	requireNoHolds(t, c.Nodes, "after the run")
}

// TestRepairSkipsRowsTheTransactionRewrites pins who read-repairs what. A
// commit leaves three of the ten replicas behind, so every runtime below reads
// over stale members. The one that rewrites what it read pushes nothing — its
// own decision carries a newer version to a whole write quorum; neither does
// the one whose attempts all end without committing; the read-only one, over
// the same rows, repairs them.
func TestRepairSkipsRowsTheTransactionRewrites(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	rows := []store.ObjectID{"x", "y"}
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0), "y": store.Int64(0)})
	ctx := context.Background()
	errGiveUp := errors.New("caller gave up")
	sweep := func(rt *dtm.Runtime, write bool, end error) error {
		return rt.Atomic(ctx, func(tx *dtm.Tx) error {
			if err := tx.Prefetch("x"); err != nil { // one row through the read-ahead buffer, one read plainly
				return err
			}
			for _, id := range rows {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				if write {
					if err := tx.Write(id, store.Int64(store.AsInt64(v)+1)); err != nil {
						return err
					}
				}
			}
			return end
		})
	}

	// Successive transactions select with successive seeds, so forty of them
	// read at every level of the tree and from every member of each.
	writer := c.Runtime(1, dtm.Config{Seed: 1})
	for i := 0; i < 40; i++ {
		if err := sweep(writer, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	behind := 0
	for _, n := range c.Nodes {
		if v, _ := n.Store().Version("x"); v < 41 {
			behind++
		}
	}
	if behind == 0 {
		t.Fatal("no replica is behind after 40 commits: the sweeps below would prove nothing")
	}
	quitter := c.Runtime(2, dtm.Config{Seed: 2})
	for i := 0; i < 40; i++ {
		if err := sweep(quitter, false, errGiveUp); !errors.Is(err, errGiveUp) {
			t.Fatal(err)
		}
	}

	// The read-only runtime's first recorded push shows that asynchronous
	// pushes have had the time to happen.
	reader := c.Runtime(3, dtm.Config{Seed: 3})
	deadline := time.Now().Add(5 * time.Second)
	for reader.Metrics().Repairs.Load() == 0 && time.Now().Before(deadline) {
		if err := sweep(reader, false, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if reader.Metrics().Repairs.Load() == 0 {
		t.Fatalf("read-only sweeps over %d stale replicas recorded no repair push", behind)
	}
	if w, q := writer.Metrics().Repairs.Load(), quitter.Metrics().Repairs.Load(); w != 0 || q != 0 {
		t.Fatalf("repairs pushed: %d by transactions that rewrote the rows they read, %d by attempts that never committed; want 0 and 0", w, q)
	}
}
