package cluster_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/health"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wal"
)

// subTransfer is the bank transfer decomposed into two sub-transactions
// (debit, then credit), exercising the ACN Block metadata that flows through
// the decision messages into the commit log.
func subTransfer(ctx context.Context, rt *dtm.Runtime, accounts, from, to int) error {
	return rt.Atomic(ctx, func(tx *dtm.Tx) error {
		if err := tx.Sub(func(s *dtm.Tx) error {
			fv, err := s.Read(store.ID("acct", from))
			if err != nil {
				return err
			}
			return s.Write(store.ID("acct", from), store.Int64(store.AsInt64(fv)-3))
		}); err != nil {
			return err
		}
		return tx.Sub(func(s *dtm.Tx) error {
			tv, err := s.Read(store.ID("acct", to))
			if err != nil {
				return err
			}
			return s.Write(store.ID("acct", to), store.Int64(store.AsInt64(tv)+3))
		})
	})
}

// converge brings every replica to the cluster-max version of every object:
// it applies the newest copy to each replica behind it and logs the write
// there, unforced as a read-repair push is. It ends with a forced append on
// every log: its fsync covers everything staged before it, and the crash that
// follows finds the converged state on disk.
func converge(t *testing.T, c *cluster.TCPCluster) {
	t.Helper()
	newest := map[store.ObjectID]store.WriteDesc{}
	for _, n := range c.Nodes {
		for _, w := range n.Store().Committed() {
			if cur, ok := newest[w.ID]; !ok || w.NewVersion > cur.NewVersion {
				newest[w.ID] = w
			}
		}
	}
	for _, n := range c.Nodes {
		for id, w := range newest {
			if ver, _ := n.Store().Version(id); ver >= w.NewVersion {
				continue
			}
			w.Value = w.Value.CloneValue()
			if err := n.Store().Apply(w, "converge"); err != nil {
				t.Fatalf("converge node %d on %s: %v", n.ID(), id, err)
			}
			rec := wal.Record{TxID: "converge", Key: id, Version: w.NewVersion, Value: w.Value}
			if err := n.WAL().AppendUnforced(rec); err != nil {
				t.Fatalf("log node %d's copy of %s: %v", n.ID(), id, err)
			}
		}
	}
	for _, n := range c.Nodes {
		if err := n.WAL().Append(wal.Record{Type: wal.RecordDecision, TxID: "converged"}); err != nil {
			t.Fatalf("sync node %d's log: %v", n.ID(), err)
		}
	}
}

// TestTCPDurableColdRestart is the PR's acceptance scenario: a correlated
// full-cluster crash (every process killed, commit logs abandoned without a
// final flush) followed by cold restarts. With the WAL on, every node must
// replay snapshot+log and serve its pre-crash, quorum-max versions
// immediately — before any client traffic — so a subsequent read sweep
// performs zero read-repair pushes and the bank invariant holds.
func TestTCPDurableColdRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("durability test skipped in -short mode")
	}
	const (
		accounts = 16
		initial  = int64(1_000)
	)
	c, err := cluster.NewTCP(cluster.Config{
		Servers:     10,
		StatsWindow: time.Hour,
		WALDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	rt := c.Runtime(1, dtm.Config{
		Seed:           1,
		RequestTimeout: time.Second,
		BackoffBase:    50 * time.Microsecond,
		BackoffMax:     time.Millisecond,
	})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		from := rng.Intn(accounts)
		to := (from + 1 + rng.Intn(accounts-1)) % accounts
		if i%3 == 0 {
			err = subTransfer(ctx, rt, accounts, from, to)
		} else {
			err = transfer(ctx, rt, accounts, from, to)
		}
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}

	// Converge all replicas, then record the expected per-account state.
	converge(t, c)
	type state struct {
		version uint64
		balance int64
	}
	want := make(map[store.ObjectID]state, accounts)
	for i := 0; i < accounts; i++ {
		id := store.ID("acct", i)
		v, ver, err := c.Nodes[0].Store().Get(id)
		if err != nil {
			t.Fatalf("pre-crash read %s: %v", id, err)
		}
		want[id] = state{version: ver, balance: store.AsInt64(v)}
		for _, n := range c.Nodes[1:] {
			if got, _ := n.Store().Version(id); got != ver {
				t.Fatalf("replicas not converged on %s: node %d at %d, node 0 at %d", id, n.ID(), got, ver)
			}
		}
	}

	// Correlated crash: every process dies, every log is abandoned mid-air.
	for _, n := range c.Nodes {
		c.Kill(n.ID())
	}
	for _, n := range c.Nodes {
		if err := c.Restart(n.ID(), true); err != nil {
			t.Fatalf("restart node %d: %v", n.ID(), err)
		}
	}

	// Replay alone — no client has spoken yet — must leave every replica at
	// the pre-crash version and balance.
	for _, n := range c.Nodes {
		if n.Recovering() {
			t.Fatalf("node %d still recovering after Restart returned", n.ID())
		}
		for id, w := range want {
			v, ver, err := n.Store().Get(id)
			if err != nil {
				t.Fatalf("node %d lost %s across restart: %v", n.ID(), id, err)
			}
			if ver != w.version || store.AsInt64(v) != w.balance {
				t.Fatalf("node %d %s: version %d balance %d after replay, want %d/%d",
					n.ID(), id, ver, store.AsInt64(v), w.version, w.balance)
			}
		}
	}
	ws := c.WALStats()
	if ws.ReplayedSnapshots == 0 && ws.ReplayedRecords == 0 {
		t.Fatal("restart recovered nothing from the logs")
	}

	// A fresh client's read sweep sees a version-current cluster: the bank
	// invariant holds and read-repair, now a backstop, has nothing to push.
	audit := c.Runtime(2, dtm.Config{
		Seed:           2,
		RequestTimeout: time.Second,
		BackoffBase:    50 * time.Microsecond,
		BackoffMax:     time.Millisecond,
	})
	var total int64
	if err := audit.Atomic(ctx, func(tx *dtm.Tx) error {
		total = 0
		for i := 0; i < accounts; i++ {
			v, err := tx.Read(store.ID("acct", i))
			if err != nil {
				return err
			}
			total += store.AsInt64(v)
		}
		return nil
	}); err != nil {
		t.Fatalf("post-restart audit: %v", err)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved across full-cluster crash: %d, want %d", total, accounts*initial)
	}
	if m := audit.Metrics().Snapshot(); m.Repairs != 0 {
		t.Fatalf("read sweep pushed %d repairs; durable restart should need none", m.Repairs)
	}
	t.Logf("durable restart: replayed %d snapshot objects + %d log records across %d nodes",
		ws.ReplayedSnapshots, ws.ReplayedRecords, len(c.Nodes))
}

// TestTCPVolatileColdRestartLosesState is the -no-wal contrast arm: without
// commit logs a correlated full-cluster crash destroys the object space
// outright — nothing read-repair could resurrect, because no replica has the
// data. Single-node volatile crashes (where read-repair does recover the
// replica) are covered by TestTCPKillRestartRepair.
func TestTCPVolatileColdRestartLosesState(t *testing.T) {
	if testing.Short() {
		t.Skip("durability test skipped in -short mode")
	}
	c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{store.ID("acct", 0): store.Int64(7)})

	for _, n := range c.Nodes {
		c.Kill(n.ID())
	}
	for _, n := range c.Nodes {
		if err := c.Restart(n.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.Nodes {
		if v, ok := n.Store().Version(store.ID("acct", 0)); ok {
			t.Fatalf("volatile node %d kept version %d across a cold restart", n.ID(), v)
		}
	}
}

// TestTCPRecoveringNodeHandshake pins the recovery handshake: a node in the
// recovering state answers pings but refuses work with StatusUnavailable,
// and clients treat that as failover — transactions keep committing and the
// failure detector never counts the refusals against the node.
func TestTCPRecoveringNodeHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("durability test skipped in -short mode")
	}
	const accounts = 8
	c, err := cluster.NewTCP(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(1_000)
	}
	c.Seed(objs)

	det := health.New(health.Config{SuspectAfter: 3, ProbeInterval: 50 * time.Millisecond})
	rt := c.Runtime(1, dtm.Config{
		Seed:           1,
		Health:         det,
		RequestTimeout: time.Second,
		BackoffBase:    50 * time.Microsecond,
		BackoffMax:     time.Millisecond,
	})
	ctx := context.Background()

	const victim = quorum.NodeID(4) // a leaf: its level keeps a majority without it
	c.Nodes[victim].BeginRecovery()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		from := rng.Intn(accounts)
		to := (from + 1 + rng.Intn(accounts-1)) % accounts
		if err := transfer(ctx, rt, accounts, from, to); err != nil {
			t.Fatalf("transfer with node %d recovering: %v", victim, err)
		}
	}
	if det.IsSuspected(victim) {
		t.Fatalf("recovering node %d was suspected; unavailability must not feed the detector", victim)
	}
	m := rt.Metrics().Snapshot()
	if m.Failovers == 0 {
		t.Fatal("no failovers recorded while a quorum member was recovering")
	}

	c.Nodes[victim].FinishRecovery(nil)
	if err := transfer(ctx, rt, accounts, 0, 1); err != nil {
		t.Fatalf("transfer after recovery finished: %v", err)
	}
	t.Logf("handshake: %d failovers while node %d recovering, never suspected", m.Failovers, victim)
}
