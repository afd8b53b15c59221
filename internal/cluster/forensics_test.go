package cluster_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// protectEverywhere runs a raw 2PC prepare as the given transaction on every
// node, leaving the key commit-protected (the decision never arrives until
// releaseEverywhere).
func protectEverywhere(t *testing.T, c *cluster.Cluster, txID string, key store.ObjectID) {
	t.Helper()
	ctx := context.Background()
	var all []quorum.NodeID
	for _, n := range c.Nodes {
		all = append(all, n.ID())
	}
	for _, n := range c.Nodes {
		resp := n.Handle(ctx, &wire.Request{
			Kind: wire.KindPrepare,
			TxID: txID,
			Prepare: &wire.PrepareRequest{
				Reads:  []store.ReadDesc{{ID: key, Version: 1}},
				Writes: []store.WriteDesc{{ID: key, Value: store.Int64(7), NewVersion: 2}},
				Quorum: all,
			},
		})
		if resp.Status != wire.StatusOK || resp.Prepare == nil || !resp.Prepare.Vote {
			t.Fatalf("prepare %s on node %d: %+v", txID, n.ID(), resp)
		}
	}
}

// releaseEverywhere aborts the holding transaction so the cluster shuts down
// with no dangling protections.
func releaseEverywhere(t *testing.T, c *cluster.Cluster, txID string, key store.ObjectID) {
	t.Helper()
	ctx := context.Background()
	for _, n := range c.Nodes {
		resp := n.Handle(ctx, &wire.Request{
			Kind:     wire.KindDecision,
			TxID:     txID,
			Decision: &wire.DecisionRequest{Commit: false, Release: []store.ObjectID{key}},
		})
		if resp.Status != wire.StatusOK {
			t.Fatalf("abort %s on node %d: %+v", txID, n.ID(), resp)
		}
	}
}

// TestConflictAttributionEndToEnd is the tentpole's acceptance path: a
// transaction that dies on a commit-locked key must leave exactly one abort
// event attributing the failure to (lock-conflict, the key, the block it
// struck, the holder's transaction ID piggybacked from the server), and the
// servers' own recorders must rank the key hot.
func TestConflictAttributionEndToEnd(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})

	const holder = "c9-t1-a1"
	protectEverywhere(t, c, holder, "k")
	defer releaseEverywhere(t, c, holder, "k")

	// One attempt, one busy re-read, microsecond backoff: the read aborts on
	// the protection instead of outwaiting it.
	rt := c.Runtime(2, dtm.Config{
		Seed:            3,
		MaxAttempts:     1,
		ReadBusyRetries: 1,
		BackoffBase:     time.Microsecond,
		BackoffMax:      2 * time.Microsecond,
	})
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("k")
		return err
	})
	if err == nil {
		t.Fatal("read of a protected key with one attempt should fail")
	}

	snap := rt.Forensics().Snapshot(10)
	if len(snap.Aborts) != 1 {
		t.Fatalf("want exactly one abort event, got %d: %+v", len(snap.Aborts), snap.Aborts)
	}
	ev := snap.Aborts[0]
	if ev.Cause != forensics.CauseLockConflict {
		t.Errorf("cause = %s, want lock-conflict", ev.CauseName)
	}
	if ev.Key != "k" {
		t.Errorf("key = %q, want %q", ev.Key, "k")
	}
	if ev.ConflictingTxID != holder {
		t.Errorf("conflicting tx = %q, want %q (server witness not piggybacked)", ev.ConflictingTxID, holder)
	}
	if ev.BlockIndex != 0 {
		t.Errorf("block index = %d, want 0 (top-level read)", ev.BlockIndex)
	}
	if ev.Partial {
		t.Error("a top-level abort must not be marked partial")
	}
	if ev.TxID == "" {
		t.Error("abort event lost its transaction ID")
	}

	m := rt.Metrics().Snapshot()
	if m.AbortsLockConflict != 1 {
		t.Errorf("AbortsLockConflict = %d, want 1", m.AbortsLockConflict)
	}
	if m.AbortsBlock0 != 1 {
		t.Errorf("AbortsBlock0 = %d, want 1", m.AbortsBlock0)
	}

	// The nodes observed the same conflict server-side: the key must appear
	// in the cluster-wide hot-key ranking.
	cf := c.Forensics(10)
	found := false
	for _, h := range cf.HotKeys {
		if h.Key == "k" {
			found = true
		}
	}
	if !found {
		t.Errorf("server-side hot keys missing %q: %+v", "k", cf.HotKeys)
	}
}

// TestSharedHolderWitnessEndToEnd: a transaction that only READ k holds it
// shared on every node. A client read of k passes; a client write of k is
// refused at prepare, and its abort event names the holder and says the hold
// was shared — over the real wire codec, with no field added to it.
func TestSharedHolderWitnessEndToEnd(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})

	const holder = "c9-t3-a0"
	ctx := context.Background()
	var all []quorum.NodeID
	for _, n := range c.Nodes {
		all = append(all, n.ID())
	}
	for _, n := range c.Nodes {
		resp := n.Handle(ctx, &wire.Request{
			Kind:    wire.KindPrepare,
			TxID:    holder,
			Prepare: &wire.PrepareRequest{Reads: []store.ReadDesc{{ID: "k", Version: 1}}, Quorum: all},
		})
		if resp.Status != wire.StatusOK || !resp.Prepare.Vote {
			t.Fatalf("read-only participant on node %d: %+v", n.ID(), resp)
		}
	}
	defer releaseEverywhere(t, c, holder, "k")

	rt := c.Runtime(2, dtm.Config{Seed: 3, MaxAttempts: 1})
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		_, err := tx.Read("k")
		return err
	}); err != nil {
		t.Fatalf("read of a shared-held key: %v", err)
	}
	err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		return tx.Write("k", store.Int64(2))
	})
	if err == nil {
		t.Fatal("write of a shared-held key committed")
	}
	evs := rt.Forensics().Aborts()
	if len(evs) != 1 {
		t.Fatalf("want exactly one abort event, got %+v", evs)
	}
	ev := evs[0]
	if h, shared := forensics.SplitWitness(ev.ConflictingTxID); ev.Cause != forensics.CauseLockConflict || ev.Key != "k" || h != holder || !shared {
		t.Fatalf("abort event = %+v, want a lock conflict on k witnessed as a shared hold by %s", ev, holder)
	}
}

// TestForensicsFetchRPC drives the wire path the inspect subcommand uses:
// KindForensics against live nodes returns the merged server-side snapshot.
func TestForensicsFetchRPC(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})

	const holder = "c9-t2-a1"
	protectEverywhere(t, c, holder, "k")
	defer releaseEverywhere(t, c, holder, "k")

	rt := c.Runtime(3, dtm.Config{
		Seed:            5,
		MaxAttempts:     1,
		ReadBusyRetries: 1,
		BackoffBase:     time.Microsecond,
		BackoffMax:      2 * time.Microsecond,
	})
	_ = rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("k")
		return err
	})

	var nodes []quorum.NodeID
	for _, n := range c.Nodes {
		nodes = append(nodes, n.ID())
	}
	snap, err := dtm.FetchForensics(context.Background(), c.Net, nodes, 5)
	if err != nil {
		t.Fatalf("FetchForensics: %v", err)
	}
	found := false
	for _, h := range snap.HotKeys {
		if h.Key == "k" && h.Conflicts > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fetched snapshot misses the conflicted key: %+v", snap.HotKeys)
	}

	// A NoForensics cluster answers the same RPC with empty state rather
	// than an error, so mixed fleets stay inspectable.
	off := cluster.New(cluster.Config{Servers: 3, StatsWindow: time.Hour, Node: server.Config{NoForensics: true}})
	defer off.Close()
	var offNodes []quorum.NodeID
	for _, n := range off.Nodes {
		offNodes = append(offNodes, n.ID())
	}
	offSnap, err := dtm.FetchForensics(context.Background(), off.Net, offNodes, 5)
	if err != nil {
		t.Fatalf("FetchForensics on -no-forensics cluster: %v", err)
	}
	if offSnap.TotalAborts != 0 || len(offSnap.Aborts) != 0 {
		t.Fatalf("disabled cluster leaked events: %+v", offSnap)
	}
}
