package dtm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
)

func TestSubRetryExhaustionEscalates(t *testing.T) {
	c := newCluster(t, 4)
	rt := c.Runtime(1, dtm.Config{MaxAttempts: 2, MaxSubAttempts: 3, Seed: 1})
	subRuns, outerRuns := 0, 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		outerRuns++
		return tx.Sub(func(s *dtm.Tx) error {
			subRuns++
			return &dtm.AbortError{Level: dtm.AbortSub, Reason: "forced"}
		})
	})
	if !errors.Is(err, dtm.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// Each outer attempt retries the sub-transaction MaxSubAttempts times,
	// then escalates to a parent-level abort.
	if outerRuns != 2 || subRuns != 6 {
		t.Fatalf("outer=%d sub=%d, want 2/6", outerRuns, subRuns)
	}
	if got := rt.Metrics().SubAborts.Load(); got != 6 {
		t.Fatalf("sub aborts = %d, want 6", got)
	}
}

func TestSubUserErrorNotRetried(t *testing.T) {
	c := newCluster(t, 4)
	rt := rtFor(c, 1)
	boom := errors.New("boom")
	subRuns := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		return tx.Sub(func(s *dtm.Tx) error {
			subRuns++
			return boom
		})
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if subRuns != 1 {
		t.Fatalf("user errors must not be retried: %d runs", subRuns)
	}
}

func TestBusyObjectEventuallyAborts(t *testing.T) {
	c := newCluster(t, 4)
	c.Seed(map[store.ObjectID]store.Value{"locked": store.Int64(1)})
	// A foreign transaction holds the protection on every replica and
	// never completes (a crashed client without lease expiry).
	for _, n := range c.Nodes {
		if err := n.Store().Protect("locked", "ghost", false); err != nil {
			t.Fatal(err)
		}
	}
	rt := c.Runtime(1, dtm.Config{
		MaxAttempts: 2,
		BackoffBase: 10 * time.Microsecond,
		BackoffMax:  50 * time.Microsecond,
		Seed:        1,
	})
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("locked")
		return err
	})
	if !errors.Is(err, dtm.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if rt.Metrics().BusyBackoffs.Load() == 0 {
		t.Fatal("busy backoffs not counted")
	}
}

func TestProtectLeaseHealsCrashedCommit(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := cluster.New(cluster.Config{
		Servers:     4,
		StatsWindow: time.Hour,
		ProtectTTL:  100 * time.Millisecond,
		Now:         clock,
	})
	t.Cleanup(c.Close)
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})
	// Simulate a client that died between 2PC phases.
	for _, n := range c.Nodes {
		if err := n.Store().Protect("x", "dead-client", false); err != nil {
			t.Fatal(err)
		}
	}
	rt := c.Runtime(1, dtm.Config{Seed: 2})
	// Advance past the lease; the cluster must have healed.
	now = now.Add(200 * time.Millisecond)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		return tx.Write("x", store.Int64(2))
	}); err != nil {
		t.Fatalf("commit after lease expiry: %v", err)
	}
}

func TestWriteOnlyTransactionCreatesManyObjects(t *testing.T) {
	c := newCluster(t, 10)
	rt := rtFor(c, 1)
	ctx := context.Background()
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		for i := 0; i < 20; i++ {
			if err := tx.Write(store.ID("row", i), store.Int64(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var sum int64
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		sum = 0
		for i := 0; i < 20; i++ {
			v, err := tx.Read(store.ID("row", i))
			if err != nil {
				return err
			}
			sum += store.AsInt64(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 190 {
		t.Fatalf("sum = %d, want 190", sum)
	}
}

func TestMergedSubReadsServedLocally(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Sub(func(s *dtm.Tx) error {
			_, err := s.Read("a")
			return err
		}); err != nil {
			return err
		}
		// After the merge, the parent must see the read without another
		// remote interaction.
		_, err := tx.Read("a")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().RemoteReads.Load(); got != 1 {
		t.Fatalf("remote reads = %d, want 1", got)
	}
}

func TestSubSeesParentBufferedWrite(t *testing.T) {
	c := newCluster(t, 4)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Write("a", store.Int64(42)); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			v, err := s.Read("a")
			if err != nil {
				return err
			}
			if store.AsInt64(v) != 42 {
				t.Fatalf("sub read %v, want parent's buffered 42", v)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestParentSeesSubBufferedWriteAfterMerge(t *testing.T) {
	c := newCluster(t, 4)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := rtFor(c, 1)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Sub(func(s *dtm.Tx) error {
			return s.Write("a", store.Int64(7))
		}); err != nil {
			return err
		}
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		if store.AsInt64(v) != 7 {
			t.Fatalf("parent read %v, want sub's merged 7", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// And the sub's write must have committed globally.
	var got int64
	if err := rtFor(c, 2).Atomic(context.Background(), func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		got = store.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("committed = %d, want 7", got)
	}
}

func TestAbortedSubLeavesNoTrace(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1)})
	rt := rtFor(c, 1)
	runs := 0
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		err := tx.Sub(func(s *dtm.Tx) error {
			runs++
			if err := s.Write("a", store.Int64(99)); err != nil {
				return err
			}
			if runs == 1 {
				return &dtm.AbortError{Level: dtm.AbortSub, Reason: "forced"}
			}
			return nil
		})
		if err != nil {
			return err
		}
		// Only the successful (second) sub execution's write survives.
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		if store.AsInt64(v) != 99 {
			t.Fatalf("a = %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("sub ran %d times", runs)
	}
}

func TestRuntimePanicsWithoutTreeOrClient(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dtm.New(dtm.Config{})
}

func TestResultHelper(t *testing.T) {
	c := newCluster(t, 4)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(21)})
	rt := rtFor(c, 1)
	got, err := dtm.Result(context.Background(), rt, func(tx *dtm.Tx) (int64, error) {
		v, err := tx.Read("a")
		if err != nil {
			return 0, err
		}
		return store.AsInt64(v) * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("Result = %d, want 42", got)
	}

	boom := errors.New("boom")
	if _, err := dtm.Result(context.Background(), rt, func(*dtm.Tx) (int64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
