package main

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/workload/bank"
)

func TestBuildExecutorsModes(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	w := bank.New(bank.Config{Branches: 4, Accounts: 8})
	c.Seed(w.SeedObjects())
	rt := c.Runtime(1, dtm.Config{Seed: 1})

	for _, mode := range []string{"dtm", "cn", "acn"} {
		execs, hub, err := buildExecutors(rt, w, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(execs) != len(w.Profiles()) {
			t.Fatalf("%s: %d executors", mode, len(execs))
		}
		if mode != "acn" {
			if hub != nil {
				t.Fatalf("%s mode built a hub", mode)
			}
			continue
		}
		// One hub drives every profile: one refresh recomposes each of them.
		if hub == nil {
			t.Fatal("acn mode without a hub")
		}
		if err := hub.RefreshOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := len(rt.Forensics().Recomposes()); got != len(execs) {
			t.Fatalf("one refresh made %d recompose decisions, want one per profile (%d)", got, len(execs))
		}
	}
	if _, _, err := buildExecutors(rt, w, "bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestSeedObjectsBatches(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	rt := c.Runtime(1, dtm.Config{Seed: 1})

	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < 150; i++ { // crosses the 64-object batch boundary twice
		objs[store.ID("seed", i)] = store.Int64(int64(i))
	}
	if err := seedObjects(context.Background(), rt, objs); err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		v, err := tx.Read(store.ID("seed", 149))
		if err != nil {
			return err
		}
		got = store.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 149 {
		t.Fatalf("seeded value = %d", got)
	}
}
