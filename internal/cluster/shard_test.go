package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// idsInShard returns n object IDs of the form prefix/i that the map homes in
// the given shard.
func idsInShard(m *shard.Map, shardIdx, n int, prefix string) []store.ObjectID {
	var out []store.ObjectID
	for i := 0; len(out) < n; i++ {
		id := store.ID(prefix, i)
		if m.ShardFor(id) == shardIdx {
			out = append(out, id)
		}
	}
	return out
}

// TestShardSingleShardTransactionsStayInGroup pins the fast-path isolation
// property at the transport level: a transaction whose objects all live in
// one quorum group must never send a message to any node outside that
// group — reads, prepares, and decisions included.
func TestShardSingleShardTransactionsStayInGroup(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 6, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	if c.Shards == nil || c.Shards.NumShards() != 2 {
		t.Fatalf("cluster did not build a 2-shard map: %v", c.Shards)
	}
	ids := idsInShard(c.Shards, 0, 3, "acct")
	objs := map[store.ObjectID]store.Value{}
	for _, id := range ids {
		objs[id] = store.Int64(100)
	}
	c.Seed(objs)

	var mu sync.Mutex
	called := map[quorum.NodeID][]wire.Kind{}
	c.Net.SetFault(func(to quorum.NodeID, req *wire.Request) transport.Fault {
		mu.Lock()
		called[to] = append(called[to], req.Kind)
		mu.Unlock()
		return transport.Fault{}
	})
	defer c.Net.SetFault(nil)

	rt := c.Runtime(1, dtm.Config{})
	ctx := context.Background()
	const txs = 8
	for i := 0; i < txs; i++ {
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			for _, id := range ids {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				if err := tx.Write(id, store.Int64(store.AsInt64(v)+1)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}

	group := c.Shards.Group(0)
	mu.Lock()
	defer mu.Unlock()
	for node, kinds := range called {
		if !group.Contains(node) {
			t.Errorf("single-shard transaction contacted node %d outside group 0: %v", node, kinds)
		}
	}
	m := rt.Metrics().Snapshot()
	if m.SingleShardCommits != txs || m.CrossShardCommits != 0 {
		t.Fatalf("single-shard=%d cross-shard=%d, want %d/0", m.SingleShardCommits, m.CrossShardCommits, txs)
	}
}

// TestShardCrossShardCommitAppliesEverywhere drives one transfer across two
// quorum groups and checks the 2PC applied both writes, the routing
// counters classified it as cross-shard, and both shards attribute the
// commit in the per-shard breakdown.
func TestShardCrossShardCommitAppliesEverywhere(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 6, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	src := idsInShard(c.Shards, 0, 1, "acct")[0]
	dst := idsInShard(c.Shards, 1, 1, "acct")[0]
	c.Seed(map[store.ObjectID]store.Value{src: store.Int64(100), dst: store.Int64(100)})

	rt := c.Runtime(1, dtm.Config{})
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		sv, err := tx.Read(src)
		if err != nil {
			return err
		}
		dv, err := tx.Read(dst)
		if err != nil {
			return err
		}
		if err := tx.Write(src, store.Int64(store.AsInt64(sv)-30)); err != nil {
			return err
		}
		return tx.Write(dst, store.Int64(store.AsInt64(dv)+30))
	}); err != nil {
		t.Fatalf("cross-shard transfer: %v", err)
	}

	m := rt.Metrics().Snapshot()
	if m.CrossShardCommits != 1 || m.SingleShardCommits != 0 {
		t.Fatalf("cross-shard=%d single-shard=%d, want 1/0", m.CrossShardCommits, m.SingleShardCommits)
	}
	per := rt.ShardSnapshot()
	if len(per) != 2 || per[0].Commits != 1 || per[1].Commits != 1 {
		t.Fatalf("per-shard attribution = %+v, want one commit in each shard", per)
	}
	// Every replica of each owning group must hold the new value.
	check := func(id store.ObjectID, want int64) {
		g := c.Shards.GroupOf(id)
		for _, n := range c.Nodes {
			if !g.Contains(n.ID()) {
				continue
			}
			v, ver, err := n.Store().Get(id)
			if err != nil || ver != 2 || store.AsInt64(v) != want {
				t.Fatalf("node %d: %s = %v v%d (err %v), want %d v2", n.ID(), id, v, ver, err, want)
			}
		}
	}
	check(src, 70)
	check(dst, 130)
}

// TestShardMapFetchRPC exercises the KindShardMap round trip end to end:
// any node serves the full map to a cold client, a version match returns
// the cached map unchanged, and an unsharded cluster answers not-found so
// the client can fall back to single-group routing.
func TestShardMapFetchRPC(t *testing.T) {
	ctx := context.Background()
	c := cluster.New(cluster.Config{Servers: 6, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	all := make([]quorum.NodeID, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		all = append(all, n.ID())
	}
	m, err := dtm.FetchShardMap(ctx, c.Net, all, nil)
	if err != nil {
		t.Fatalf("cold fetch: %v", err)
	}
	if m.String() != c.Shards.String() || m.Version() != c.Shards.Version() {
		t.Fatalf("fetched map %q v%d, cluster has %q v%d", m, m.Version(), c.Shards, c.Shards.Version())
	}
	// A warm fetch with the current version must hand the cache back.
	if again, err := dtm.FetchShardMap(ctx, c.Net, all[3:], m); err != nil || again != m {
		t.Fatalf("warm fetch: map %p err %v, want cached %p", again, err, m)
	}

	flat := cluster.New(cluster.Config{Servers: 3, StatsWindow: time.Hour})
	defer flat.Close()
	if m, err := dtm.FetchShardMap(ctx, flat.Net, []quorum.NodeID{0}, nil); err == nil {
		t.Fatalf("unsharded cluster served a map: %v", m)
	}
}

// crossShardKillScenario runs one two-group transfer with the coordinator
// killed at the given protocol message, cold-restarts one in-doubt
// participant in EACH group when asked, then drives cooperative termination
// until every group's in-doubt table drains and audits conservation across
// both shards. Resolution is the only healing mechanism: read-repair is
// disabled throughout.
func crossShardKillScenario(t *testing.T, killAt int, afterSend, restartParticipants bool) server.ResolutionStats {
	t.Helper()
	const (
		initial = int64(1_000)
		amount  = int64(100)
	)
	c := cluster.New(cluster.Config{
		Servers:       6,
		Shards:        2,
		StatsWindow:   time.Hour,
		WALDir:        t.TempDir(),
		FsyncInterval: -1, // fsync every append: acked state is durable
		Node: server.Config{
			SnapshotEvery: -1,
			ResolveAfter:  time.Millisecond,
			TTLAbortAfter: 25 * time.Millisecond,
		},
	})
	defer c.Close()
	ids := append(idsInShard(c.Shards, 0, 2, "acct"), idsInShard(c.Shards, 1, 2, "acct")...)
	src, dst := ids[0], ids[2] // shard 0 → shard 1
	objs := map[store.ObjectID]store.Value{}
	for _, id := range ids {
		objs[id] = store.Int64(initial)
	}
	c.Seed(objs)

	kc := &killClient{inner: c.Net, killAt: killAt, afterSend: afterSend}
	rt := dtm.New(dtm.Config{
		Tree:          c.Tree,
		Shards:        c.Shards,
		Client:        kc,
		Alive:         c.Net.Alive,
		ClientSeed:    1,
		Seed:          1,
		NoRepair:      true, // divergence must be healed by resolution alone
		MaxAttempts:   1,
		DecideTimeout: 5 * time.Millisecond,
		BackoffBase:   20 * time.Microsecond,
		BackoffMax:    200 * time.Microsecond,
	})
	ctx := context.Background()
	// The transfer under the gun crosses both quorum groups, and only reads
	// a third account (ids[1], shard 0) so every kill point also strands a
	// shared hold; an error just means the kill landed before the outcome
	// was decided or acked.
	_ = rt.Atomic(ctx, func(tx *dtm.Tx) error {
		if _, err := tx.Read(ids[1]); err != nil {
			return err
		}
		fv, err := tx.Read(src)
		if err != nil {
			return err
		}
		tv, err := tx.Read(dst)
		if err != nil {
			return err
		}
		if err := tx.Write(src, store.Int64(store.AsInt64(fv)-amount)); err != nil {
			return err
		}
		return tx.Write(dst, store.Int64(store.AsInt64(tv)+amount))
	})

	if restartParticipants {
		// Cold-restart one in-doubt participant per group: each shard's
		// in-doubt table must rebuild from its own WAL directory.
		for s := 0; s < c.Shards.NumShards(); s++ {
			g := c.Shards.Group(s)
			victim := g.Nodes()[0]
			for _, n := range c.Nodes {
				if g.Contains(n.ID()) && len(n.InDoubt()) > 0 {
					victim = n.ID()
					break
				}
			}
			if err := c.CrashRestart(victim); err != nil {
				t.Fatalf("kill@%d: crash-restart node %d (shard %d): %v", killAt, victim, s, err)
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for c.Resolution().InDoubt > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("kill@%d after=%v restart=%v: in-doubt not drained: %+v",
				killAt, afterSend, restartParticipants, c.Resolution())
		}
		c.ResolveAll(ctx)
		time.Sleep(time.Millisecond)
	}

	// In-doubt must be resolved in every group, not just cluster-wide.
	for _, n := range c.Nodes {
		if left := n.InDoubt(); len(left) > 0 {
			t.Fatalf("kill@%d: node %d (shard %d) still in doubt: %v",
				killAt, n.ID(), c.Shards.HomeOf(n.ID()), left)
		}
	}
	if reps := rt.Metrics().Snapshot().Repairs; reps != 0 {
		t.Fatalf("kill@%d: %d read-repairs ran with NoRepair set", killAt, reps)
	}
	auditCrossShardKill(t, c, killAt, ids, src, dst, initial)
	return c.Resolution()
}

// auditCrossShardKill checks the invariants every kill point must leave
// behind on a sharded cluster: no protection survives resolution in either
// group, the transfer is all-or-nothing ACROSS groups (the version-2 writes
// applied on both sides' full write quorums or on neither), replicas agree
// within each group, and the balance over all four accounts is conserved.
func auditCrossShardKill(t *testing.T, c *cluster.Cluster, killAt int, ids []store.ObjectID, src, dst store.ObjectID, initial int64) {
	t.Helper()
	type cell struct {
		ver uint64
		val int64
	}
	requireNoHolds(t, c.Nodes, fmt.Sprintf("kill@%d, after resolution", killAt))
	maxVer := map[store.ObjectID]cell{}
	applied := map[store.ObjectID]int{}
	for _, n := range c.Nodes {
		for id, o := range n.Store().Snapshot() {
			v := store.AsInt64(o.Value)
			if cur, ok := maxVer[id]; !ok || o.Version > cur.ver {
				maxVer[id] = cell{ver: o.Version, val: v}
			} else if o.Version == cur.ver && v != cur.val {
				t.Fatalf("kill@%d: replica divergence on %s: version %d is both %d (node %d) and %d",
					killAt, id, o.Version, cur.val, n.ID(), v)
			}
			if o.Version == 2 {
				applied[id]++
			}
		}
	}
	// Atomicity across groups: a commit applied in shard 0 but aborted in
	// shard 1 (or vice versa) would show up as an applied-count mismatch.
	if applied[src] != applied[dst] {
		t.Fatalf("kill@%d: cross-shard partial commit: %s applied on %d replicas, %s on %d",
			killAt, src, applied[src], dst, applied[dst])
	}
	var total int64
	for _, id := range ids {
		total += maxVer[id].val
	}
	if want := int64(len(ids)) * initial; total != want {
		t.Fatalf("kill@%d: money not conserved across shards: %d, want %d", killAt, total, want)
	}
}

// TestChaosCrossShardCoordinatorKillMatrix kills the coordinator at EVERY
// injection point of the cross-shard 2PC message sequence — before and
// after each per-group prepare send and each per-group decision send — and
// requires that cooperative termination alone (read-repair off) drains
// every group's in-doubt table, conserves the bank balance across shards,
// and leaves zero divergence, including when one participant per group is
// cold-restarted so the per-shard WAL carries the protocol. This is the
// sharded counterpart of TestChaosCoordinatorKillMatrix: the prepare's
// quorum union must let either group learn the outcome from the other.
func TestChaosCrossShardCoordinatorKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short mode")
	}
	// Probe: a kill point beyond the whole message sequence measures it.
	const probe = 1 << 30
	c := cluster.New(cluster.Config{Servers: 6, Shards: 2, StatsWindow: time.Hour})
	src := idsInShard(c.Shards, 0, 1, "acct")[0]
	dst := idsInShard(c.Shards, 1, 1, "acct")[0]
	kc := &killClient{inner: c.Net, killAt: probe}
	rt := dtm.New(dtm.Config{Tree: c.Tree, Shards: c.Shards, Client: kc, Alive: c.Net.Alive, ClientSeed: 1, Seed: 1, NoRepair: true})
	c.Seed(map[store.ObjectID]store.Value{src: store.Int64(1), dst: store.Int64(1)})
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		for _, id := range []store.ObjectID{src, dst} {
			v, err := tx.Read(id)
			if err != nil {
				return err
			}
			if err := tx.Write(id, v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("probe transfer: %v", err)
	}
	messages := kc.sent() // both groups' prepare fan-outs + decision fan-outs
	c.Close()
	if messages < 4 {
		t.Fatalf("probe measured %d protocol messages, want at least 4", messages)
	}
	t.Logf("cross-shard matrix: %d protocol messages per transfer, %d scenarios",
		messages, 2*2*messages)

	var agg server.ResolutionStats
	scenarios := 0
	for _, restart := range []bool{false, true} {
		for _, afterSend := range []bool{false, true} {
			for k := 0; k < messages; k++ {
				agg.Add(crossShardKillScenario(t, k, afterSend, restart))
				scenarios++
			}
		}
	}
	if agg.PeerCommits == 0 {
		t.Error("matrix never resolved an in-doubt vote from a peer's commit decision")
	}
	if agg.PeerAborts+agg.TTLAborts == 0 {
		t.Error("matrix never aborted an undecided vote")
	}
	if agg.RecoveredInDoubt == 0 {
		t.Error("restart sweep never recovered an in-doubt vote from a per-shard WAL")
	}
	t.Logf("cross-shard matrix: %d scenarios, resolution outcomes: %+v", scenarios, agg)
}
