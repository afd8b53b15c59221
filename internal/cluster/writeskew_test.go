package cluster_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// requireNoHolds fails the test if any replica still has a protection of
// either mode in force. A stranded SHARED hold refuses no read, so unlike a
// stranded exclusive one it never shows up as a Busy reply or a stalled
// audit transaction: this snapshot check is the only thing that sees it.
func requireNoHolds(t *testing.T, nodes []*server.Node, when string) {
	t.Helper()
	for _, n := range nodes {
		for id, o := range n.Store().Snapshot() {
			if o.Protected || len(o.SharedBy) > 0 {
				t.Fatalf("%s: node %d still holds %s (exclusive %q, shared %v)",
					when, n.ID(), id, o.ProtectedBy, o.SharedBy)
			}
		}
	}
}

// writeSkewPair runs T1{read x, write y} and T2{read y, write x} once each,
// made to overlap: neither writes before both have read, and every decision
// is held back 50 ms so both prepares are voted on before either outcome
// lands. The two conflict (each writes what the other read), so no serial
// order lets both commit on the versions they read.
func writeSkewPair(t *testing.T, c *cluster.Cluster, x, y store.ObjectID) (err1, err2 error) {
	t.Helper()
	c.Seed(map[store.ObjectID]store.Value{x: store.Int64(1), y: store.Int64(1)})
	c.Net.SetFault(func(_ quorum.NodeID, req *wire.Request) transport.Fault {
		if req.Kind == wire.KindDecision {
			return transport.Fault{Delay: 50 * time.Millisecond}
		}
		return transport.Fault{}
	})
	var haveRead, done sync.WaitGroup
	haveRead.Add(2)
	run := func(client int, read, write store.ObjectID, err *error) {
		defer done.Done()
		rt := c.Runtime(client, dtm.Config{Seed: int64(client), MaxAttempts: 1})
		*err = rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
			v, rerr := tx.Read(read)
			haveRead.Done()
			if rerr != nil {
				return rerr
			}
			haveRead.Wait()
			return tx.Write(write, store.Int64(store.AsInt64(v)+1))
		})
	}
	done.Add(2)
	go run(1, x, y, &err1)
	go run(2, y, x, &err2)
	done.Wait()
	c.Net.SetFault(nil)
	if err1 == nil && err2 == nil {
		t.Fatalf("write skew: T1{read %s, write %s} and T2{read %s, write %s} both committed", x, y, y, x)
	}
	requireNoHolds(t, c.Nodes, "after the write-skew pair")
	return err1, err2
}

// TestCrossShardWriteSkewRefused is the regression test for the cross-shard
// participant rule: x and y live in different quorum groups, so each
// transaction sends a prepare WITHOUT writes to the group it only reads
// from. When such a part was treated as a read-only transaction (validate,
// hold nothing) both transactions committed.
func TestCrossShardWriteSkewRefused(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 6, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	x := idsInShard(c.Shards, 0, 1, "skew")[0]
	y := idsInShard(c.Shards, 1, 1, "skew")[0]
	writeSkewPair(t, c, x, y)
}

// TestWriteSkewRefusedInOneGroup is the single-group twin: both objects in
// one quorum group, so each prepare holds its read shared and its write
// exclusive on a write quorum, the two write quorums intersect, and at the
// intersection one transaction's exclusive request meets the other's shared
// hold. It guards the shared mode itself.
func TestWriteSkewRefusedInOneGroup(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 6, StatsWindow: time.Hour})
	defer c.Close()
	writeSkewPair(t, c, "skew/x", "skew/y")
}
