package dtm_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/health"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// TestDetectorFailover injects connection failures for one node that are
// invisible to the liveness oracle (as on a real network, where there is no
// oracle): the runtime must keep committing via exclude-set failover, the
// detector must trip, and once the fault clears a probe must readmit the
// node.
func TestDetectorFailover(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})

	var failNode atomic.Int64
	failNode.Store(-1)
	c.Net.SetFault(func(to quorum.NodeID, req *wire.Request) transport.Fault {
		if int64(to) == failNode.Load() {
			return transport.Fault{Err: &transport.Error{
				Kind: transport.ErrKindDial, Node: to, Err: transport.ErrNodeDown,
			}}
		}
		return transport.Fault{}
	})

	det := health.New(health.Config{
		SuspectAfter:  2,
		ProbeInterval: 5 * time.Millisecond,
	})
	// DetectorRuntime: no oracle — health is known only through RPC outcomes.
	rt := c.DetectorRuntime(1, dtm.Config{
		Seed:           1,
		Health:         det,
		RequestTimeout: 500 * time.Millisecond,
	})
	ctx := context.Background()

	bump := func() error {
		return rt.Atomic(ctx, func(tx *dtm.Tx) error {
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			return tx.Write("x", store.Int64(store.AsInt64(v)+1))
		})
	}

	if err := bump(); err != nil {
		t.Fatalf("healthy baseline commit: %v", err)
	}

	const sick = quorum.NodeID(4) // a leaf: its level keeps a majority without it
	failNode.Store(int64(sick))
	// Commit until the detector trips rather than assuming a fixed number of
	// transactions sweeps the sick node into enough quorums.
	tripped := time.Now().Add(5 * time.Second)
	for !det.IsSuspected(sick) && time.Now().Before(tripped) {
		if err := bump(); err != nil {
			t.Fatalf("commit during fault: %v", err)
		}
	}
	m := rt.Metrics().Snapshot()
	if m.Failovers == 0 {
		t.Fatal("no failovers recorded while a quorum member was failing")
	}
	if m.Suspicions == 0 || !det.IsSuspected(sick) {
		t.Fatalf("detector did not trip on node %d (suspicions=%d)", sick, m.Suspicions)
	}

	// Heal the fault; ordinary traffic doubles as the probe stream.
	failNode.Store(-1)
	deadline := time.Now().Add(2 * time.Second)
	for det.IsSuspected(sick) && time.Now().Before(deadline) {
		if err := bump(); err != nil {
			t.Fatalf("commit during recovery: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if det.IsSuspected(sick) {
		t.Fatalf("node %d not readmitted after fault cleared", sick)
	}
	m = rt.Metrics().Snapshot()
	if m.Probes == 0 || m.Readmissions == 0 {
		t.Fatalf("probes=%d readmissions=%d, want both > 0", m.Probes, m.Readmissions)
	}
}

// TestDetectorFailoverOnTimeouts is the same scenario with dropped messages
// instead of refused connections: calls hang until the request timeout, the
// weaker crash signal.
func TestDetectorFailoverOnTimeouts(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})

	var failNode atomic.Int64
	failNode.Store(4)
	c.Net.SetFault(func(to quorum.NodeID, req *wire.Request) transport.Fault {
		if int64(to) == failNode.Load() {
			return transport.Fault{Drop: true}
		}
		return transport.Fault{}
	})

	rt := c.DetectorRuntime(1, dtm.Config{
		Seed:           1,
		Health:         health.New(health.Config{SuspectAfter: 2, ProbeInterval: 50 * time.Millisecond}),
		RequestTimeout: 30 * time.Millisecond, // keep dropped calls cheap
	})
	ctx := context.Background()
	bump := func() error {
		return rt.Atomic(ctx, func(tx *dtm.Tx) error {
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			return tx.Write("x", store.Int64(store.AsInt64(v)+1))
		})
	}
	// Commit until the timeouts have tripped the detector (polling, not a
	// fixed transaction count: how many commits sweep node 4 into a quorum
	// depends on the seed rotation).
	deadline := time.Now().Add(5 * time.Second)
	for !rt.Health().IsSuspected(4) && time.Now().Before(deadline) {
		if err := bump(); err != nil {
			t.Fatalf("commit during drops: %v", err)
		}
	}
	if !rt.Health().IsSuspected(4) {
		t.Fatal("detector did not trip on timeouts")
	}
	// Once suspected, the node is excluded from selection, so steady-state
	// commits stop paying the timeout. An individual commit can still carry
	// a half-open probe of the suspect (and eat one more timeout), so poll
	// for a probe-free fast commit instead of timing a single one.
	fast := false
	deadline = time.Now().Add(5 * time.Second)
	for !fast && time.Now().Before(deadline) {
		start := time.Now()
		if err := bump(); err != nil {
			t.Fatalf("commit with suspect excluded: %v", err)
		}
		fast = time.Since(start) < 25*time.Millisecond
	}
	if !fast {
		t.Fatal("no commit finished under the 30ms drop timeout while the suspect was excluded")
	}
}

// TestDeadlineExpiryDetectorNeutral: when a transaction's own deadline
// expires while calls are in flight, the timeouts it manufactures must not
// be charged to the nodes — an impatient client is not a sick server.
func TestDeadlineExpiryDetectorNeutral(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})

	// Every message hangs until the caller gives up. With RequestTimeout far
	// beyond TxDeadline, the only thing that can fail the calls is the
	// transaction's own budget expiring.
	c.Net.SetFault(func(to quorum.NodeID, req *wire.Request) transport.Fault {
		return transport.Fault{Drop: true}
	})

	rt := c.DetectorRuntime(1, dtm.Config{
		Seed:           1,
		Health:         health.New(health.Config{SuspectAfter: 1, ProbeInterval: time.Hour}),
		RequestTimeout: 10 * time.Second,
		TxDeadline:     30 * time.Millisecond,
		MaxAttempts:    1,
	})
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("x")
		return err
	})
	if err == nil {
		t.Fatal("transaction committed with every message dropped")
	}
	if got := rt.Metrics().Snapshot().Suspicions; got != 0 {
		t.Fatalf("suspicions = %d after a self-inflicted deadline expiry, want 0", got)
	}
	for n := quorum.NodeID(0); n < 4; n++ {
		if rt.Health().IsSuspected(n) {
			t.Fatalf("node %d suspected because of an expired-deadline timeout", n)
		}
	}
}

// TestReadRepairConverges commits a write (which only touches a write
// quorum) and then drives reads until read-repair has pushed the fresh
// version to every replica — including those no write quorum covered.
func TestReadRepairConverges(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})

	rt := c.Runtime(1, dtm.Config{Seed: 1})
	ctx := context.Background()
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		return tx.Write("x", store.Int64(42))
	}); err != nil {
		t.Fatal(err)
	}

	var want uint64
	for _, n := range c.Nodes {
		if v, ok := n.Store().Version("x"); ok && v > want {
			want = v
		}
	}
	if want == 0 {
		t.Fatal("no replica holds the committed version")
	}

	// Successive transactions use successive quorum seeds, so a read loop
	// sweeps quorums across levels and level offsets; each read that sees a
	// stale member schedules an async repair push.
	readX := func() {
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			_, err := tx.Read("x")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		readX()
		behind := 0
		for _, n := range c.Nodes {
			if v, _ := n.Store().Version("x"); v < want {
				behind++
			}
		}
		if behind == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, n := range c.Nodes {
		v, ok := n.Store().Version("x")
		if !ok || v < want {
			t.Fatalf("node %d still stale: version %d, want %d", n.ID(), v, want)
		}
		got, _, err := n.Store().Get("x")
		if err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
		if store.AsInt64(got) != 42 {
			t.Fatalf("node %d repaired to value %v, want 42", n.ID(), got)
		}
	}
	if rt.Metrics().Snapshot().Repairs == 0 {
		t.Fatal("convergence happened without any recorded repair push")
	}
}

// TestNoRepairFlag: with repair disabled, reads never push to stale members.
func TestNoRepairFlag(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})

	rt := c.Runtime(1, dtm.Config{Seed: 1, NoRepair: true})
	// control shares the cluster with repair enabled: once IT has recorded a
	// repair push, async pushes demonstrably had time to happen — a positive
	// signal to poll for, instead of sleeping a fixed "long enough" and
	// hoping the negative assertion was given a fair window.
	control := c.Runtime(2, dtm.Config{Seed: 2})
	ctx := context.Background()
	if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
		return tx.Write("x", store.Int64(2))
	}); err != nil {
		t.Fatal(err)
	}
	readX := func(r *dtm.Runtime) {
		t.Helper()
		if err := r.Atomic(ctx, func(tx *dtm.Tx) error {
			_, err := tx.Read("x")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for control.Metrics().Snapshot().Repairs == 0 && time.Now().Before(deadline) {
		readX(rt)
		readX(control)
		time.Sleep(time.Millisecond)
	}
	if control.Metrics().Snapshot().Repairs == 0 {
		t.Fatal("control runtime never recorded a repair push; cannot judge the NoRepair claim")
	}
	if got := rt.Metrics().Snapshot().Repairs; got != 0 {
		t.Fatalf("repairs = %d with NoRepair set, want 0", got)
	}
}

// TestFetchStatsFailover: a stats quorum that loses a member mid-query must
// retry on a quorum excluding it and still return.
func TestFetchStatsFailover(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(1)})

	var failNode atomic.Int64
	failNode.Store(4)
	c.Net.SetFault(func(to quorum.NodeID, req *wire.Request) transport.Fault {
		if int64(to) == failNode.Load() {
			return transport.Fault{Err: &transport.Error{
				Kind: transport.ErrKindDial, Node: to, Err: transport.ErrNodeDown,
			}}
		}
		return transport.Fault{}
	})

	// Sweep client seeds so at least one first-choice stats quorum contains
	// the failing node and must fail over.
	gotRetry := false
	for seed := 0; seed < 6 && !gotRetry; seed++ {
		rt := c.DetectorRuntime(seed, dtm.Config{Seed: int64(seed) + 1, RequestTimeout: 500 * time.Millisecond})
		if _, err := rt.FetchStats(context.Background(), []store.ObjectID{"x"}); err != nil {
			t.Fatalf("seed %d: FetchStats failed despite failover: %v", seed, err)
		}
		if rt.Metrics().Snapshot().StatsQuorumRetries > 0 {
			gotRetry = true
		}
	}
	if !gotRetry {
		t.Fatal("no client seed exercised the stats failover path")
	}
}

// TestCommitDoesNotFailOverOnDeadContext: a commit round that fails because
// the caller's context is dead must return the context's error after that one
// round, as the read, prefetch, cross-shard and stats loops do — not select
// three more quorums, spend three retries and count three failovers for a
// caller that has already given up.
func TestCommitDoesNotFailOverOnDeadContext(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write bool
	}{{"read-write", true}, {"read-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
			defer c.Close()
			c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
			rt := c.Runtime(1, dtm.Config{Seed: 1})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
				v, err := tx.Read("x")
				if err != nil {
					return err
				}
				if tc.write {
					if err := tx.Write("x", store.Int64(store.AsInt64(v)+1)); err != nil {
						return err
					}
				}
				cancel() // the caller gives up as the body returns: the commit runs under a dead context
				return nil
			})
			if !errors.Is(err, context.Canceled) || errors.Is(err, dtm.ErrQuorumUnreachable) {
				t.Fatalf("Atomic = %v, want the context's error alone", err)
			}
			m := rt.Metrics().Snapshot()
			if rounds := m.Prepares + m.ReadOnlyFasts; rounds != 1 || m.Failovers != 0 {
				t.Fatalf("commit under a dead context ran %d rounds (%d prepares, %d read-only validations) and %d failovers, want 1 and 0",
					rounds, m.Prepares, m.ReadOnlyFasts, m.Failovers)
			}
		})
	}
}
