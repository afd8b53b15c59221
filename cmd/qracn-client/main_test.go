package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/metrics"
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

// TestRunThreadKeepsDrivingAfterFailures: a thread whose first transactions
// fail (a node down) pauses, counts them and goes on committing once the
// cluster answers again. It used to return on the first error, and the
// thread committed nothing for the rest of the run. A failure after the run
// ended is not counted.
func TestRunThreadKeepsDrivingAfterFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const failures, commits = 3, 5
	calls := 0
	execute := func(ctx context.Context) error {
		calls++
		switch {
		case calls <= failures:
			return errors.New("node down")
		case calls <= failures+commits:
			return nil
		default:
			cancel()
			return ctx.Err()
		}
	}
	meter := metrics.NewThroughputMeter(1)
	var failed atomic.Uint64
	runThread(ctx, execute, meter, &failed, time.Millisecond)

	if got := meter.Total(); got != commits {
		t.Fatalf("thread committed %d transactions, want %d after its %d failures", got, commits, failures)
	}
	if got := failed.Load(); got != failures {
		t.Fatalf("failed = %d, want %d", got, failures)
	}
}

func TestCheckRunShape(t *testing.T) {
	for _, tc := range []struct {
		threads, intervals int
		interval           time.Duration
		ok                 bool
	}{
		{4, 6, 2 * time.Second, true},
		{1, 1, time.Nanosecond, true},
		{0, 6, 2 * time.Second, false},
		{-1, 6, 2 * time.Second, false},
		{4, 0, 2 * time.Second, false},
		{4, -3, 2 * time.Second, false},
		{4, 6, 0, false},
		{4, 6, -time.Second, false},
	} {
		err := checkRunShape(tc.threads, tc.intervals, tc.interval)
		if (err == nil) != tc.ok {
			t.Errorf("checkRunShape(%d, %d, %v) = %v, want ok=%v", tc.threads, tc.intervals, tc.interval, err, tc.ok)
		}
	}
}
