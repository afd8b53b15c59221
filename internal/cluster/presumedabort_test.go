package cluster_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// TestChaosPresumedAbortLostRecord drives a real refused commit through a
// durable cluster: node 0 refuses the transfer's prepare (a shared hold on
// the debited account), the other six members of the write quorum vote yes
// and are sent the abort, which they log unforced. The linger bound is an
// hour, so no abort record is on disk when a node crashes.
//
// One yes-voter crash-restarts: its prepare is in-doubt again, a peer that
// kept the outcome answers Aborted. Then every node crash-restarts, so no
// memory of the outcome survives anywhere: the yes-voters are all in-doubt,
// and the member that never voted yes promises abort. Either way every
// protection is released, nothing was applied, and the rows are usable.
func TestChaosPresumedAbortLostRecord(t *testing.T) {
	const initial = int64(1_000)
	c := cluster.New(cluster.Config{
		Servers:       10,
		StatsWindow:   time.Hour,
		WALDir:        t.TempDir(),
		FsyncInterval: time.Hour,
		Node: server.Config{
			SnapshotEvery: -1,
			ResolveAfter:  time.Millisecond,
			TTLAbortAfter: 25 * time.Millisecond,
		},
	})
	defer c.Close()
	from, to := store.ID("acct", 0), store.ID("acct", 1)
	c.Seed(map[store.ObjectID]store.Value{from: store.Int64(initial), to: store.Int64(initial)})
	for _, n := range c.Nodes {
		if err := n.Checkpoint(); err != nil { // seeded rows reach the log through the snapshot
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	// The blocker only reads `from`, so reads of it still pass and the
	// transfer gets as far as its prepare.
	blocker := func(req *wire.Request) {
		t.Helper()
		req.TxID = "blocker"
		if resp := c.Nodes[0].Handle(ctx, req); resp.Status != wire.StatusOK {
			t.Fatalf("blocker %s: %+v", req.Kind, resp)
		}
	}
	blocker(&wire.Request{Kind: wire.KindPrepare, Prepare: &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: from, Version: 1}, {ID: "blk", Version: 0}},
		Writes: []store.WriteDesc{{ID: "blk", Value: store.Int64(1), NewVersion: 1}},
		Quorum: []quorum.NodeID{0, 1}, // node 1 never hears of it: it can promise abort
	}})

	transfer := func(rt *dtm.Runtime) error {
		return rt.Atomic(ctx, func(tx *dtm.Tx) error {
			fv, err := tx.Read(from)
			if err != nil {
				return err
			}
			tv, err := tx.Read(to)
			if err != nil {
				return err
			}
			if err := tx.Write(from, store.Int64(store.AsInt64(fv)-100)); err != nil {
				return err
			}
			return tx.Write(to, store.Int64(store.AsInt64(tv)+100))
		})
	}
	if err := transfer(c.Runtime(1, dtm.Config{Seed: 1, MaxAttempts: 1, NoRepair: true})); err == nil {
		t.Fatal("transfer committed through a refused prepare")
	}
	blocker(&wire.Request{Kind: wire.KindDecision, Decision: &wire.DecisionRequest{Release: []store.ObjectID{from, "blk"}}})
	requireNoHolds(t, c.Nodes, "after the coordinator's abort")

	// A yes-voter appended twice: its prepare (forced) and the abort (not).
	var voters []quorum.NodeID
	for _, n := range c.Nodes[1:] {
		if s := n.WAL().Stats(); s.Appends == 2 && s.Fsyncs == 1 {
			voters = append(voters, n.ID())
		}
	}
	if len(voters) != 6 {
		t.Fatalf("%d nodes logged a yes vote and an unforced abort, want the 6 other members of the write quorum", len(voters))
	}

	drain := func(when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Resolution().InDoubt > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: in-doubt not drained: %+v", when, c.Resolution())
			}
			time.Sleep(time.Millisecond) // past ResolveAfter
			c.ResolveAll(ctx)
		}
		requireNoHolds(t, c.Nodes, when)
	}

	if err := c.CrashRestart(voters[0]); err != nil {
		t.Fatal(err)
	}
	if ids := c.Nodes[voters[0]].InDoubt(); len(ids) != 1 {
		t.Fatalf("restarted yes-voter's in-doubt table = %v, want the prepare whose abort record was lost", ids)
	}
	drain("one yes-voter lost the abort record")
	if r := c.Nodes[voters[0]].ResolutionStats(); r.PeerAborts != 1 || r.TTLAborts != 0 {
		t.Fatalf("resolution on the restarted voter: %+v, want one peer abort", r)
	}

	for _, n := range c.Nodes {
		if err := c.CrashRestart(n.ID()); err != nil {
			t.Fatal(err)
		}
	}
	// voters[0] synced its abort record with the resolution's next forced
	// append or not at all; the other five certainly lost theirs.
	if got := c.Resolution().InDoubt; got < 5 {
		t.Fatalf("%d in-doubt prepares after every node restarted, want at least 5", got)
	}
	drain("every node lost the abort record")
	if r := c.Resolution(); r.PeerCommits != 0 {
		t.Fatalf("a lost abort record resolved to commit: %+v", r)
	}

	for _, n := range c.Nodes {
		for _, id := range []store.ObjectID{from, to} {
			if _, ver, err := n.Store().Get(id); err != nil || ver != 1 {
				t.Fatalf("node %d: %s at version %d (err %v), want the seeded 1: the abort applied nothing", n.ID(), id, ver, err)
			}
		}
	}
	if err := transfer(c.Runtime(2, dtm.Config{Seed: 2})); err != nil {
		t.Fatalf("transfer over the released rows: %v", err)
	}
}
