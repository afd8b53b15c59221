package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// protectEverywhere runs a raw 2PC prepare as the given transaction on every
// node, leaving the key commit-protected (the decision never arrives until
// releaseEverywhere).
func protectEverywhere(t *testing.T, nodes []*server.Node, txID string, key store.ObjectID) {
	t.Helper()
	ctx := context.Background()
	all := nodeIDs(nodes)
	for _, n := range nodes {
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
func releaseEverywhere(t *testing.T, nodes []*server.Node, txID string, key store.ObjectID) {
	t.Helper()
	ctx := context.Background()
	for _, n := range nodes {
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

func nodeIDs(nodes []*server.Node) []quorum.NodeID {
	var ids []quorum.NodeID
	for _, n := range nodes {
		ids = append(ids, n.ID())
	}
	return ids
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
	protectEverywhere(t, c.Nodes, holder, "k")
	defer releaseEverywhere(t, c.Nodes, holder, "k")

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
		t.Errorf("cause = %s, want lock-conflict", ev.Cause)
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
	defer releaseEverywhere(t, c.Nodes, holder, "k")

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

// liveCluster is a running cluster as the debug fetch sees it, whichever
// transport its messages cross.
type liveCluster struct {
	nodes   []*server.Node
	client  transport.Client
	runtime func(int, dtm.Config) *dtm.Runtime
}

// overBothTransports runs the test against the same deployment on the
// channel network with real serialization (the document crosses the codec,
// not just Clone) and on loopback TCP.
func overBothTransports(t *testing.T, cfg cluster.Config, test func(*testing.T, liveCluster)) {
	t.Run("channel+binary", func(t *testing.T) {
		cfg := cfg
		cfg.Network.Codec = wire.Binary
		c := cluster.New(cfg)
		defer c.Close()
		test(t, liveCluster{c.Nodes, c.Net, c.Runtime})
	})
	t.Run("tcp", func(t *testing.T) {
		c, err := cluster.NewTCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		client := transport.NewTCPClient(c.Addrs(), cfg.Compress)
		defer client.Close()
		test(t, liveCluster{c.Nodes, client, c.Runtime})
	})
}

// TestForensicsFetchRPC drives the wire path the inspect subcommand uses:
// KindInspect against live nodes returns the merged server-side snapshot,
// causes and witnesses included.
func TestForensicsFetchRPC(t *testing.T) {
	overBothTransports(t, cluster.Config{Servers: 4, StatsWindow: time.Hour}, func(t *testing.T, c liveCluster) {
		for _, n := range c.nodes {
			n.Store().SeedBatch(map[store.ObjectID]store.Value{"k": store.Int64(1)})
		}

		const holder = "c9-t2-a1"
		protectEverywhere(t, c.nodes, holder, "k")
		defer releaseEverywhere(t, c.nodes, holder, "k")

		rt := c.runtime(3, dtm.Config{
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

		doc, err := dtm.Inspect(context.Background(), c.client, nodeIDs(c.nodes), "", 5)
		if err != nil {
			t.Fatalf("Inspect: %v", err)
		}
		snap := doc.Forensics
		found := false
		for _, h := range snap.HotKeys {
			if h.Key == "k" && h.Conflicts > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("fetched snapshot misses the conflicted key: %+v", snap.HotKeys)
		}
		if len(snap.Aborts) == 0 || snap.TotalAborts != uint64(len(snap.Aborts)) {
			t.Fatalf("fetched snapshot has %d events for %d recorded", len(snap.Aborts), snap.TotalAborts)
		}
		for _, ev := range snap.Aborts {
			if ev.Cause != forensics.CauseLockConflict || ev.Key != "k" || ev.ConflictingTxID != holder || ev.At.IsZero() {
				t.Fatalf("event lost its attribution on the way: %+v", ev)
			}
		}
	})

	// A NoForensics cluster answers the same RPC with empty state rather
	// than an error, so mixed fleets stay inspectable.
	t.Run("no-forensics", func(t *testing.T) {
		off := cluster.Config{Servers: 3, StatsWindow: time.Hour, Node: server.Config{NoForensics: true}}
		overBothTransports(t, off, func(t *testing.T, c liveCluster) {
			doc, err := dtm.Inspect(context.Background(), c.client, nodeIDs(c.nodes), "", 5)
			if err != nil {
				t.Fatalf("Inspect on -no-forensics cluster: %v", err)
			}
			if doc.Forensics.TotalAborts != 0 || len(doc.Forensics.Aborts) != 0 || len(doc.Spans) != 0 {
				t.Fatalf("disabled cluster leaked events: %+v", doc)
			}
		})
	})
}

// TestInspectLargeDocumentCompressedOverTCP: a node whose rings are full
// answers with a document far past wire.CompressThreshold; it crosses TCP
// with frame compression on and arrives whole.
func TestInspectLargeDocumentCompressedOverTCP(t *testing.T) {
	const events = 4096
	c, err := cluster.NewTCP(cluster.Config{
		Servers: 4, StatsWindow: time.Hour, Compress: true,
		Node: server.Config{ForensicsRing: events},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := c.Nodes[2].Forensics()
	at := time.Unix(1700000000, 0)
	for i := 0; i < events; i++ {
		rec.RecordAbort(forensics.AbortEvent{
			At: at.Add(time.Duration(i)), TxID: fmt.Sprintf("c1-t%d-a0", i), BlockIndex: -1,
			UnitAnchorID: -1, Key: fmt.Sprintf("row/%d", i%64), Shard: -1,
			Cause: forensics.CauseReadValidation,
		})
	}
	if raw, _ := json.Marshal(c.Nodes[2].Inspect("", 8)); len(raw) < 100*wire.CompressThreshold {
		t.Fatalf("document is %d bytes: too small to exercise compression", len(raw))
	}

	client := transport.NewTCPClient(c.Addrs(), true)
	defer client.Close()
	doc, err := dtm.Inspect(context.Background(), client, []quorum.NodeID{2}, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	got := doc.Forensics
	if len(got.Aborts) != events || got.TotalAborts != events || len(got.HotKeys) != 8 {
		t.Fatalf("fetched %d events (%d recorded), %d hot keys; want %d, %d, 8",
			len(got.Aborts), got.TotalAborts, len(got.HotKeys), events, events)
	}
	for i, ev := range got.Aborts {
		if ev.TxID != fmt.Sprintf("c1-t%d-a0", i) || !ev.At.Equal(at.Add(time.Duration(i))) || ev.Cause != forensics.CauseReadValidation {
			t.Fatalf("event %d arrived as %+v", i, ev)
		}
	}
}
