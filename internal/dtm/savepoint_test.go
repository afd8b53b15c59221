package dtm_test

import (
	"context"
	"testing"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/store"
)

// A Block that aborts partially gives back what it overwrote: the write it
// replaced comes back with the Block that made it, and what the Block read
// first is forgotten. Its retry writes nothing, so the commit is the
// parent's write alone.
func TestAbortedSubRestoresWhatItOverwrote(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1)})
	rt, sc := scriptedRuntime(c, fewAttempts)
	runs := 0
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if _, err := tx.Read("a"); err != nil {
			return err
		}
		if err := tx.Write("a", store.Int64(10)); err != nil {
			return err
		}
		if err := tx.Sub(func(s *dtm.Tx) error {
			if runs++; runs > 1 {
				return nil
			}
			if _, err := s.Read("b"); err != nil {
				return err
			}
			if err := s.Write("a", store.Int64(99)); err != nil {
				return err
			}
			return &dtm.AbortError{Level: dtm.AbortSub, Reason: "forced"}
		}); err != nil {
			return err
		}
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		if store.AsInt64(v) != 10 {
			t.Errorf("a = %v after the Block rolled back, want the parent's 10", v)
		}
		n, err := remoteReads(rt, func() error {
			_, err := tx.Read("b")
			return err
		})
		if n != 1 {
			t.Errorf("re-reading b cost %d remote reads, want 1: the rolled-back Block's read is forgotten", n)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("Block ran %d times, want 2", runs)
	}
	prepares := sc.sent(isPrepare)
	if len(prepares) == 0 {
		t.Fatal("no prepare was sent")
	}
	for _, p := range prepares {
		for _, w := range p.req.Prepare.Writes {
			if w.ID != "a" || store.AsInt64(w.Value) != 10 || w.Block != 0 {
				t.Fatalf("prepare writes %s = %v from Block %d, want a = 10 from Block 0", w.ID, w.Value, w.Block)
			}
		}
	}
}

// Savepoints nest as a stack: restoring an earlier one undoes every write
// after it newest first, through any later savepoint, and forgets every read
// after it. The commit installs the state the earlier savepoint saw.
func TestSavepointsNestAsAStack(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1)})
	rt := rtFor(c, 1)
	ctx := context.Background()
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		if _, err := tx.Read("a"); err != nil {
			return err
		}
		if err := tx.Write("a", store.Int64(10)); err != nil {
			return err
		}
		cp1 := tx.Checkpoint()
		if err := tx.Write("a", store.Int64(20)); err != nil {
			return err
		}
		cp2 := tx.Checkpoint()
		if err := tx.Write("a", store.Int64(30)); err != nil {
			return err
		}
		if _, err := tx.Read("b"); err != nil {
			return err
		}
		if cp1.ReadLen() != 1 || cp2.ReadLen() != 1 {
			t.Errorf("ReadLen = %d and %d, want 1 and 1", cp1.ReadLen(), cp2.ReadLen())
		}
		tx.Restore(cp1)
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		if store.AsInt64(v) != 10 {
			t.Errorf("a = %v after restoring the first savepoint, want 10", v)
		}
		if _, ok := tx.ReadPosition("b"); ok {
			t.Error("b read after the first savepoint is still in the read set")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := rtFor(c, 2).Atomic(ctx, func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		got = store.AsInt64(v)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("committed a = %d, want the first savepoint's 10", got)
	}
}

// A rewind to an earlier Block's savepoint numbers the Blocks it re-runs as
// they were numbered the first time: a conflict in the re-run Block 1 names
// Block 1 and its anchor, not a Block past the end of the composition, which
// has no anchor.
func TestRewindKeepsBlockNumbers(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(1), "c": store.Int64(1)})
	rt := rtFor(c, 1)
	other := rtFor(c, 2)
	ctx := context.Background()
	anchors := []int{-1, 7, 8} // Block 1 runs anchor 7, Block 2 anchor 8
	runs := 0
	block1 := func(s *dtm.Tx) error {
		if _, err := s.Read("a"); err != nil {
			return err
		}
		if runs++; runs == 2 {
			// The re-run's "a" goes stale before its read of "c" validates it.
			if err := other.Atomic(ctx, func(o *dtm.Tx) error { return o.Write("a", store.Int64(2)) }); err != nil {
				return err
			}
		}
		_, err := s.Read("c")
		return err
	}
	rewound := false
	block2 := func(s *dtm.Tx) error {
		if _, err := s.Read("b"); err != nil {
			return err
		}
		if rewound {
			return nil
		}
		rewound = true
		return &dtm.AbortError{Level: dtm.AbortParent, Invalid: []store.ObjectID{"a"}, Key: "a",
			Reason: "forced", Cause: forensics.CauseReadValidation, Block: 2}
	}
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		tx.SetBlockMeta(len(anchors), anchors)
		save := tx.Checkpoint()
		if err := tx.Sub(block1); err != nil {
			return err
		}
		err := tx.Sub(block2)
		if ae, ok := dtm.AsAbort(err); ok {
			if err := tx.RollBack(save, ae, 0); err != nil {
				return err
			}
			if err := tx.Sub(block1); err != nil {
				return err
			}
			err = tx.Sub(block2)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics().Snapshot(); runs != 3 || m.SubAborts != 2 || m.ParentAborts != 0 {
		t.Fatalf("Block 1 ran %d times, sub aborts = %d, parent aborts = %d; want 3, 2 and 0",
			runs, m.SubAborts, m.ParentAborts)
	}
	evs := rt.Forensics().Snapshot(10).Aborts
	if len(evs) != 2 {
		t.Fatalf("want the rewind and the re-run's partial abort, got %+v", evs)
	}
	if ev := evs[1]; !ev.Partial || ev.Key != "a" || ev.BlockIndex != 1 || ev.UnitAnchorID != 7 {
		t.Fatalf("re-run Block's abort: partial %v, key %q, block %d, anchor %d; want true, a, 1 and 7",
			ev.Partial, ev.Key, ev.BlockIndex, ev.UnitAnchorID)
	}
}
