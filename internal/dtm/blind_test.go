package dtm_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// A write that is an object's first access reads nothing: the transaction
// assumes the object absent (version 0), and only the prepare checks that.
// These tests pin what happens when the assumption is wrong, and that nothing
// else ever sees it.

// fewAttempts makes a transaction that keeps re-executing fail fast instead of
// retrying for a test's lifetime.
var fewAttempts = dtm.Config{MaxAttempts: 8, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond}

// maxVersion is the object's version on the replica that holds the newest.
func maxVersion(c *cluster.Cluster, id store.ObjectID) uint64 {
	var most uint64
	for _, n := range c.Nodes {
		if v, ok := n.Store().Version(id); ok && v > most {
			most = v
		}
	}
	return most
}

// TestBlindOverwriteCommitsInOneExecution: a blind write of a row that exists
// is refused by the prepare, and the commit reads the row's version and
// prepares again instead of running the program again. The row ends at its
// old version + 1. Sharded, the row lives in a group the transaction touches
// nowhere else, so that group's part is the blind write alone.
func TestBlindOverwriteCommitsInOneExecution(t *testing.T) {
	for _, shards := range []int{0, 2} {
		name := "unsharded"
		if shards > 1 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			servers := 10
			if shards > 1 {
				servers = 20
			}
			c := cluster.New(cluster.Config{Servers: servers, Shards: shards, StatsWindow: time.Hour})
			defer c.Close()
			blind, read := store.ObjectID("x"), store.ObjectID("y")
			if shards > 1 {
				blind, read = twoGroupKeys(t, c)
			}
			c.Seed(map[store.ObjectID]store.Value{blind: store.Int64(1), read: store.Int64(1)})
			rt := c.Runtime(1, fewAttempts)
			ctx := context.Background()
			// Move the blind row past its seeded version, so +1 is checked
			// against a version the prepare could not have guessed.
			for i := 0; i < 2; i++ {
				if err := bumpKeys(rt, blind); err != nil {
					t.Fatal(err)
				}
			}
			old := maxVersion(c, blind)
			before := rt.Metrics().Snapshot()

			runs := 0
			if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
				runs++
				v, err := tx.Read(read)
				if err != nil {
					return err
				}
				if err := tx.Write(read, store.Int64(store.AsInt64(v)+1)); err != nil {
					return err
				}
				return tx.Write(blind, store.Int64(42))
			}); err != nil {
				t.Fatal(err)
			}
			if runs != 1 {
				t.Fatalf("program ran %d times, want 1", runs)
			}
			if got := maxVersion(c, blind); got != old+1 {
				t.Fatalf("blind row at version %d, want %d", got, old+1)
			}
			if got := maxVersion(c, read); got != 2 {
				t.Fatalf("read row at version %d, want 2", got)
			}
			m := rt.Metrics().Snapshot()
			if d := m.Prepares - before.Prepares; d != 2 {
				t.Fatalf("%d prepare rounds, want 2: the refused one and the re-prepare", d)
			}
			if d := m.BatchReads - before.BatchReads; d != 1 {
				t.Fatalf("%d batched rounds, want 1: the blind row's refetch", d)
			}
			if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
				v, err := tx.Read(blind)
				if err == nil && store.AsInt64(v) != 42 {
					t.Fatalf("blind row reads %v, want 42", v)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBlindWritersOfAnAbsentKeyBothCommit: two transactions write the same
// absent key blind, both past their first access before either commits. Both
// commit, one after the other, and the key ends at version 2.
func TestBlindWritersOfAnAbsentKeyBothCommit(t *testing.T) {
	c := newCluster(t, 10)
	ctx := context.Background()
	var written sync.WaitGroup
	written.Add(2)
	errs := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		// Their prepares may meet each other's protections and both
		// abort, so they get more attempts than fewAttempts gives.
		rt := c.Runtime(i, dtm.Config{MaxAttempts: 100, BackoffBase: 20 * time.Microsecond, BackoffMax: time.Millisecond})
		go func() {
			first := true
			errs <- rt.Atomic(ctx, func(tx *dtm.Tx) error {
				if err := tx.Write("fresh", store.Int64(int64(i))); err != nil {
					return err
				}
				if first {
					first = false
					written.Done()
					written.Wait()
				}
				return nil
			})
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := maxVersion(c, "fresh"); got != 2 {
		t.Fatalf("key at version %d after two committed writers, want 2", got)
	}
}

// TestBlindEntryRidesInNoValidationList: a blind entry observed nothing, so no
// incremental validation carries it — not a plain read's, not a read-ahead's,
// not the batched re-read of a refused blind write — while the commit's
// prepare names it at the assumed version 0.
func TestBlindEntryRidesInNoValidationList(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"r1": store.Int64(1), "r2": store.Int64(1),
		"r3": store.Int64(1), "taken": store.Int64(1)})
	rt, sc := scriptedRuntime(c, fewAttempts)
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		if err := tx.Sub(func(s *dtm.Tx) error {
			if err := s.Write("w", store.Int64(1)); err != nil {
				return err
			}
			return s.Write("taken", store.Int64(2)) // present: its prepare is refused
		}); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			if _, err := s.Read("r1"); err != nil {
				return err
			}
			if err := s.Prefetch("r2", "r3"); err != nil {
				return err
			}
			_, err := s.Read("r2")
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}

	lists := 0
	carriesR1 := false
	check := func(what string, list []store.ReadDesc) {
		for _, d := range list {
			if d.ID == "w" || d.ID == "taken" {
				t.Fatalf("%s validates blind entry %s", what, d.ID)
			}
			carriesR1 = carriesR1 || d.ID == "r1"
		}
		lists++
	}
	for _, s := range sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindRead || r.Kind == wire.KindBatch }) {
		if s.req.Kind == wire.KindRead {
			check("read of "+string(s.req.Read.Object), s.req.Read.Validate)
			continue
		}
		for _, sub := range s.req.Batch.Subs {
			check("batched read of "+string(sub.Read.Object), sub.Read.Validate)
		}
	}
	if lists == 0 || !carriesR1 {
		t.Fatalf("%d validation lists seen, r1 in one of them: %v; the check saw nothing to check", lists, carriesR1)
	}
	// The refetch was the last batch: it asked for "taken" alone.
	batches := sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindBatch })
	last := batches[len(batches)-1].req.Batch.Subs
	if len(last) != 1 || last[0].Read.Object != "taken" {
		t.Fatalf("last batched read asked for %d objects, want \"taken\" alone", len(last))
	}
	named := 0
	for _, d := range sc.sent(isPrepare)[0].req.Prepare.Reads {
		if d.ID == "w" || d.ID == "taken" {
			named++
			if d.Version != 0 {
				t.Fatalf("first prepare validates %s at version %d, want the assumed 0", d.ID, d.Version)
			}
		}
	}
	if named != 2 {
		t.Fatalf("first prepare names %d of the two blind entries", named)
	}
}

// TestBlindRePrepareRefusedOnAReadAbortsOnce: when the re-prepare after a
// blind write's refusal is itself refused, for a read that went stale, the
// attempt aborts like any refused commit — attributed to that read — and no
// second re-read or re-prepare follows. The next attempt commits.
func TestBlindRePrepareRefusedOnAReadAbortsOnce(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1), "r": store.Int64(1)})
	rt, sc := scriptedRuntime(c, fewAttempts)
	sc.script = func(_ context.Context, _ quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if isPrepare(req) && strings.HasSuffix(req.TxID, "-a0-b") {
			return &wire.Response{Status: wire.StatusOK,
				Prepare: &wire.PrepareResponse{Invalid: []store.ObjectID{"r"}}}, nil
		}
		return nil, nil
	}
	runs := 0
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		runs++
		if _, err := tx.Read("r"); err != nil {
			return err
		}
		return tx.Write("x", store.Int64(7))
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("program ran %d times, want 2", runs)
	}
	order, _ := byAttempt(sc, isPrepare)
	var first []string
	for _, id := range order {
		if strings.Contains(id, "-a0") {
			first = append(first, id)
		}
	}
	if len(first) != 2 || !strings.HasSuffix(first[0], "-a0") || !strings.HasSuffix(first[1], "-a0-b") {
		t.Fatalf("first attempt's prepare rounds %v, want the refused round and one re-prepare", first)
	}
	// The program prefetches nothing, so every batched round is a re-read;
	// a round sends its members one request.
	refetches := map[*wire.Request]bool{}
	for _, s := range sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindBatch }) {
		if strings.HasSuffix(s.req.TxID, "-a0") {
			refetches[s.req] = true
		}
	}
	if len(refetches) != 1 {
		t.Fatalf("first attempt re-read the blind row in %d rounds, want one", len(refetches))
	}
	m := rt.Metrics().Snapshot()
	if m.ParentAborts != 1 || m.AbortsReadValidation != 1 {
		t.Fatalf("ParentAborts %d, read-validation aborts %d; want 1 and 1", m.ParentAborts, m.AbortsReadValidation)
	}
	evs := rt.Forensics().Snapshot(10).Aborts
	if len(evs) != 1 || evs[0].Key != "r" || evs[0].Cause != forensics.CauseReadValidation {
		t.Fatalf("abort events %+v, want one read-validation abort on r", evs)
	}
	if got := maxVersion(c, "x"); got != 2 {
		t.Fatalf("x at version %d, want 2", got)
	}
}

// TestBlindRefusalIsNoAbort: the refused round a blind write's re-prepare
// recovers from is counted as a refused prepare and nothing more — no parent
// abort, no abort event — and the re-prepare runs under a fresh round ID.
func TestBlindRefusalIsNoAbort(t *testing.T) {
	c := newCluster(t, 10)
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})
	rt, sc := scriptedRuntime(c, fewAttempts)
	var id string
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		id = tx.ID()
		return tx.Write("x", store.Int64(9))
	}); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if m.Commits != 1 || m.ParentAborts != 0 || m.PrepareFails != 1 || m.Prepares != 2 {
		t.Fatalf("commits %d, parent aborts %d, refused prepares %d of %d; want 1, 0, 1 of 2",
			m.Commits, m.ParentAborts, m.PrepareFails, m.Prepares)
	}
	if s := rt.Forensics().Snapshot(10); s.TotalAborts != 0 {
		t.Fatalf("%d abort events recorded: %+v", s.TotalAborts, s.Aborts)
	}
	if order, _ := byAttempt(sc, isPrepare); len(order) != 2 || order[0] != id || order[1] != id+"-b" {
		t.Fatalf("prepare rounds %v, want %s then %s-b", order, id, id)
	}
	if got := maxVersion(c, "x"); got != 2 {
		t.Fatalf("x at version %d, want 2", got)
	}
}
