package dtm_test

import (
	"context"
	"fmt"
	"testing"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/store"
)

// TestPartialAbortAttribution pins the partial-rollback half of the
// forensic contract: when incremental validation rolls back only a
// sub-transaction, the event must say so — partial, block index 1 (the
// first Sub), cause read-validation, and the invalidated key by name.
func TestPartialAbortAttribution(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{
		"cold": store.Int64(1),
		"hot":  store.Int64(1),
		"tail": store.Int64(1),
	})
	rt := rtFor(c, 1)
	other := rtFor(c, 2)
	ctx := context.Background()

	subRuns := 0
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		if _, err := tx.Read("cold"); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			subRuns++
			if _, err := s.Read("hot"); err != nil {
				return err
			}
			if subRuns == 1 {
				if err := other.Atomic(ctx, func(o *dtm.Tx) error {
					return o.Write("hot", store.Int64(2))
				}); err != nil {
					return fmt.Errorf("interfering commit: %v", err)
				}
			}
			if _, err := s.Read("tail"); err != nil {
				return err
			}
			return s.Write("tail", store.Int64(5))
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := rt.Forensics().Snapshot(10)
	if len(snap.Aborts) != 1 {
		t.Fatalf("want exactly one abort event, got %d: %+v", len(snap.Aborts), snap.Aborts)
	}
	ev := snap.Aborts[0]
	if !ev.Partial {
		t.Error("a sub-transaction rollback must be marked partial")
	}
	if ev.Cause != forensics.CauseReadValidation {
		t.Errorf("cause = %s, want read-validation", ev.Cause)
	}
	if ev.Key != "hot" {
		t.Errorf("key = %q, want %q", ev.Key, "hot")
	}
	if ev.BlockIndex != 1 {
		t.Errorf("block index = %d, want 1 (first Sub)", ev.BlockIndex)
	}

	m := rt.Metrics().Snapshot()
	if m.AbortsReadValidation != 1 {
		t.Errorf("AbortsReadValidation = %d, want 1", m.AbortsReadValidation)
	}
	if m.AbortsBlock1 != 1 {
		t.Errorf("AbortsBlock1 = %d, want 1", m.AbortsBlock1)
	}
}

// TestNoForensicsRuntimeRecordsNothing: with the recorder off, aborts still
// count in the per-cause counters (they are plain atomics) but no events
// accumulate and Forensics() is nil-safe throughout.
func TestNoForensicsRuntimeRecordsNothing(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := c.Runtime(1, dtm.Config{Seed: 1, NoForensics: true})
	other := rtFor(c, 2)
	ctx := context.Background()

	runs := 0
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		runs++
		if _, err := tx.Read("a"); err != nil {
			return err
		}
		if runs == 1 {
			if err := other.Atomic(ctx, func(o *dtm.Tx) error {
				return o.Write("a", store.Int64(2))
			}); err != nil {
				return fmt.Errorf("interfering commit: %v", err)
			}
		}
		return tx.Write("a", store.Int64(3))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Forensics() != nil {
		t.Fatal("NoForensics runtime still carries a recorder")
	}
	snap := rt.Forensics().Snapshot(10)
	if len(snap.Aborts) != 0 || snap.TotalAborts != 0 {
		t.Fatalf("nil recorder produced events: %+v", snap)
	}
	if got := rt.Metrics().Snapshot().AbortsReadValidation; got == 0 {
		t.Error("per-cause counters must keep counting with the recorder off")
	}
}
