package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/health"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/raceflag"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/transport"
)

// auditTotal sums every account with one transaction and fails the test if
// the bank invariant broke.
func auditTotal(t *testing.T, c *cluster.Cluster, accounts int, want int64) {
	t.Helper()
	rt := c.Runtime(9999, dtm.Config{Seed: 9999})
	var total int64
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
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
		t.Fatalf("audit: %v", err)
	}
	if total != want {
		t.Fatalf("money not conserved: %d, want %d", total, want)
	}
}

// TestOverloadStormBackpressure is the overload acceptance scenario: a
// request storm well past the admission gate's capacity must degrade
// gracefully — shed requests are answered StatusOverloaded (never dropped),
// clients honour the backpressure by retrying the same node under their
// retry budget, and goodput holds near the unloaded rate instead of
// collapsing. Crucially the detector must stay silent: an overloaded node is
// alive, and suspecting it would shift its load onto peers and cascade.
func TestOverloadStormBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("overload test skipped in -short mode")
	}
	const (
		// Enough accounts that overload, not data contention, dominates:
		// the storm's tail must measure queueing and shedding, not aborts.
		accounts    = 1024
		initial     = int64(10_000)
		phaseLen    = 350 * time.Millisecond
		maxQueueAge = 2 * time.Millisecond
	)
	c := cluster.New(cluster.Config{
		Servers:     10,
		StatsWindow: time.Hour,
		Node:        server.Config{MaxInflight: 2, QueueDepth: 2, MaxQueueAge: maxQueueAge},
	})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	// runPhase drives `clients` workers for phaseLen and returns goodput
	// plus the latency profile of committed transactions and the summed
	// client-side counters.
	type phaseResult struct {
		commits                                 uint64
		p99                                     time.Duration
		overloadBackoffs, suspicions, failovers uint64
	}
	runPhase := func(clients int, seedBase int64) phaseResult {
		var hist metrics.Histogram
		var commits, ob, su, fo atomic.Uint64
		var wg sync.WaitGroup
		// Workers stop at a wall-clock mark and let their last transaction
		// drain rather than being cancelled mid-flight: a cancelled RPC is a
		// member error, and would count as a (spurious) failover.
		stop := time.Now().Add(phaseLen)
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				rt := c.DetectorRuntime(int(seedBase)+ci+1, dtm.Config{
					Seed:        seedBase + int64(ci) + 1,
					MaxAttempts: 10_000,
					// A bounded budget is load shedding's client half: a
					// transaction that keeps being shed fails fast instead of
					// camping on the queue, so the committed population keeps
					// its latency profile.
					RetryBudget: 25,
					BackoffBase: 20 * time.Microsecond,
					BackoffMax:  100 * time.Microsecond,
					Health: health.New(health.Config{
						SuspectAfter:  3,
						ProbeInterval: 50 * time.Millisecond,
					}),
					RequestTimeout: time.Second,
				})
				rng := rand.New(rand.NewSource(seedBase*1000 + int64(ci)*77))
				for time.Now().Before(stop) {
					from := rng.Intn(accounts)
					to := (from + 1 + rng.Intn(accounts-1)) % accounts
					start := time.Now()
					if err := transfer(context.Background(), rt, accounts, from, to); err == nil {
						hist.Record(time.Since(start))
						commits.Add(1)
					}
				}
				s := rt.Metrics().Snapshot()
				ob.Add(s.OverloadBackoffs)
				su.Add(s.Suspicions)
				fo.Add(s.Failovers)
			}(ci)
		}
		wg.Wait()
		return phaseResult{commits.Load(), hist.Quantile(0.99), ob.Load(), su.Load(), fo.Load()}
	}

	base := runPhase(2, 100)   // unloaded: concurrency well under the gates
	storm := runPhase(16, 200) // ~8x the per-node inflight capacity

	if base.commits == 0 || storm.commits == 0 {
		t.Fatalf("phase committed nothing: base=%d storm=%d", base.commits, storm.commits)
	}
	adm := c.Admission()
	if adm.Shed == 0 {
		t.Fatalf("storm never shed: admission %+v — the gate was not exercised", adm)
	}
	if storm.overloadBackoffs == 0 {
		t.Fatal("no overload backoffs: clients never saw StatusOverloaded backpressure")
	}
	// Backpressure must never look like failure: no suspicions, no failovers.
	if s := base.suspicions + storm.suspicions; s != 0 {
		t.Fatalf("detector raised %d suspicions under overload; shed answers must be detector-neutral", s)
	}
	if f := base.failovers + storm.failovers; f != 0 {
		t.Fatalf("%d failovers under overload; backpressure must retry the same node, not shift load", f)
	}
	// Quantitative degradation bounds are skipped under the race detector
	// (it serializes goroutines and inflates tails ~10x; the correctness
	// assertions above still run).
	if !raceflag.Enabled {
		// Goodput under ~8x saturation holds near the unloaded rate
		// (graceful degradation, not collapse).
		if float64(storm.commits) < 0.7*float64(base.commits) {
			t.Fatalf("goodput collapsed under storm: %d commits vs %d unloaded (< 70%%)", storm.commits, base.commits)
		}
		// Admitted work is not starved: committed-transaction p99 stays
		// within a small multiple of the unloaded p99 (adaptive LIFO keeps
		// queue waits bounded; shed-and-retry replaces unbounded queueing).
		// The floor is one queue residency: on the in-process transport the
		// unloaded p99 sits below the gate's own latency quantum, and a 5x
		// criterion below that would measure scheduler noise.
		floor := base.p99
		if floor < maxQueueAge {
			floor = maxQueueAge
		}
		if storm.p99 > 5*floor {
			t.Fatalf("admitted p99 %v exceeds 5x unloaded p99 %v (floor %v)", storm.p99, base.p99, floor)
		}
	}
	auditTotal(t, c, accounts, accounts*initial)
	t.Logf("storm: base %d commits p99=%v; storm %d commits p99=%v; shed=%d backoffs=%d",
		base.commits, base.p99, storm.commits, storm.p99, adm.Shed, storm.overloadBackoffs)
}

// TestDeadlineExpiredWorkRejected pins deadline propagation end to end with
// a skewed server clock: the servers run two seconds ahead, so every request
// a short-deadline transaction stamps is already expired on arrival. Servers
// must reject it up front (StatusOverloaded, counted as expired) without
// taking protections, the client must burn its retry budget on same-node
// backoff — never suspicion — and a transaction whose deadline outlives the
// skew must commit untouched state.
func TestDeadlineExpiredWorkRejected(t *testing.T) {
	const skew = 2 * time.Second
	c := cluster.New(cluster.Config{
		Servers:     4,
		StatsWindow: time.Hour,
		Now:         func() time.Time { return time.Now().Add(skew) },
	})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})

	late := c.Runtime(1, dtm.Config{
		Seed:        1,
		TxDeadline:  200 * time.Millisecond, // well inside the skew: expired on arrival
		RetryBudget: 3,
		BackoffBase: 10 * time.Microsecond,
		BackoffMax:  100 * time.Microsecond,
	})
	err := late.Atomic(context.Background(), func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		return tx.Write("a", store.Int64(store.AsInt64(v)+1))
	})
	if !errors.Is(err, dtm.ErrRetriesExhausted) {
		t.Fatalf("expired-deadline tx = %v, want ErrRetriesExhausted", err)
	}
	adm := c.Admission()
	if adm.Expired == 0 {
		t.Fatalf("no server counted the expired request: admission %+v", adm)
	}
	m := late.Metrics().Snapshot()
	if m.OverloadBackoffs == 0 {
		t.Fatal("client never backed off on the overload answer")
	}
	if m.BudgetExhausted == 0 {
		t.Fatal("retry budget was never exhausted")
	}
	if m.Suspicions != 0 {
		t.Fatalf("%d suspicions from deadline rejections; expiry must be detector-neutral", m.Suspicions)
	}

	// A deadline that outlives the skew commits — and sees the untouched
	// value, proving the expired transaction left no protection or write.
	ok := c.Runtime(2, dtm.Config{Seed: 2, TxDeadline: 10 * time.Second})
	if err := ok.Atomic(context.Background(), func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		if got := store.AsInt64(v); got != 1 {
			t.Errorf("expired tx leaked state: a = %d, want 1", got)
		}
		return tx.Write("a", store.Int64(2))
	}); err != nil {
		t.Fatalf("generous-deadline tx: %v", err)
	}
	var got int64
	if err := ok.Atomic(context.Background(), func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		got = store.AsInt64(v)
		return err
	}); err != nil || got != 2 {
		t.Fatalf("read-back: a = %d (%v), want 2", got, err)
	}
}

// TestSlowNodeHedgedReads is the gray-failure acceptance scenario: one
// replica's latency ramps to ~50x normal while staying up. A control client
// (no hedging) sees its read tail collapse to the slow node's latency; a
// hedged client escapes it — after the hedge delay the read goes to one
// extra replica and the first valid quorum wins — while the abandoned slow
// call stays detector-neutral (no suspicion flapping).
//
// The 4-node tree makes the geometry deterministic: levels are {0} and
// {1,2,3}, so a hedge for a level-1 quorum always lands on the root, whose
// singleton level completes a valid read quorum by itself.
func TestSlowNodeHedgedReads(t *testing.T) {
	if testing.Short() {
		t.Skip("gray-failure test skipped in -short mode")
	}
	const (
		objects = 8
		samples = 200
		slowBy  = 10 * time.Millisecond
	)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < objects; i++ {
		objs[store.ID("obj", i)] = store.Int64(int64(i))
	}
	c.Seed(objs)

	chaos := transport.NewChaosClient(c.Net, 4242)
	const slow = quorum.NodeID(3)
	chaos.SetRamp(slow, slowBy, 80*time.Millisecond)
	time.Sleep(120 * time.Millisecond) // past the ramp window: held at target

	mk := func(seed int64, hedge time.Duration) *dtm.Runtime {
		return dtm.New(dtm.Config{
			Tree:       c.Tree,
			Client:     chaos,
			Alive:      c.Net.Alive,
			ClientSeed: int(seed),
			Seed:       seed,
			HedgeAfter: hedge,
			Health: health.New(health.Config{
				SuspectAfter:  3,
				ProbeInterval: 200 * time.Millisecond,
			}),
		})
	}
	// measure times the quorum read itself (commit validation is a separate,
	// unhedged fan-out and would dilute the comparison).
	measure := func(rt *dtm.Runtime) time.Duration {
		t.Helper()
		var h metrics.Histogram
		for i := 0; i < samples; i++ {
			obj := store.ID("obj", i%objects)
			if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
				start := time.Now()
				_, err := tx.Read(obj)
				h.Record(time.Since(start))
				return err
			}); err != nil {
				t.Fatalf("read tx: %v", err)
			}
		}
		return h.Quantile(0.99)
	}

	control := mk(1, 0)                  // hedging off
	hedged := mk(1000, time.Millisecond) // hedge after 1ms
	controlP99 := measure(control)
	hedgedP99 := measure(hedged)

	if controlP99 < slowBy/2 {
		t.Fatalf("control p99 %v did not degrade; the slow node was never in a read quorum", controlP99)
	}
	if hedgedP99 > controlP99/2 {
		t.Fatalf("hedged p99 %v not better than half the control p99 %v", hedgedP99, controlP99)
	}
	if hedgedP99 > slowBy/2 {
		t.Fatalf("hedged p99 %v still at slow-node scale (%v)", hedgedP99, slowBy)
	}
	hm := hedged.Metrics().Snapshot()
	if hm.HedgesFired == 0 || hm.HedgeWins == 0 {
		t.Fatalf("hedging never engaged: fired=%d wins=%d", hm.HedgesFired, hm.HedgeWins)
	}
	if hm.Suspicions != 0 {
		t.Fatalf("hedged client raised %d suspicions; abandoned slow calls must be detector-neutral", hm.Suspicions)
	}
	if cm := control.Metrics().Snapshot(); cm.Suspicions != 0 {
		t.Fatalf("control client raised %d suspicions; a slow-but-answering node must not be suspected", cm.Suspicions)
	}
	t.Logf("slow node: control p99=%v hedged p99=%v (hedges fired=%d won=%d)",
		controlP99, hedgedP99, hm.HedgesFired, hm.HedgeWins)
}

// TestSlowFsyncConservation runs the bank workload on a durable cluster
// whose disks gray out — fsyncs stretched by injected delay — with a crash
// and cold restart of the slowest node mid-run. Slow disks may cost
// throughput but never correctness: every acked commit must survive the
// restart and the balance must conserve.
func TestSlowFsyncConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-disk test skipped in -short mode")
	}
	const (
		accounts = 16
		initial  = int64(10_000)
		clients  = 4
	)
	c, err := cluster.NewDurable(cluster.Config{
		Servers:     10,
		StatsWindow: time.Hour,
		WALDir:      t.TempDir(),
		ProtectTTL:  50 * time.Millisecond,
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

	// Two replicas gray out: every group-commit fsync crawls.
	c.Nodes[1].WAL().SetSyncDelay(2 * time.Millisecond)
	c.Nodes[5].WAL().SetSyncDelay(time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var commits atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rt := c.Runtime(ci+1, dtm.Config{
				Seed:        int64(ci) + 1,
				MaxAttempts: 200,
				BackoffBase: 20 * time.Microsecond,
				BackoffMax:  500 * time.Microsecond,
			})
			rng := rand.New(rand.NewSource(int64(ci)*31 + 7))
			for ctx.Err() == nil {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				if err := transfer(ctx, rt, accounts, from, to); err == nil {
					commits.Add(1)
				}
			}
		}(ci)
	}

	// Mid-run: crash the slowest disk's node and cold-restart it from its
	// commit log (the unsynced tail is lost, exactly what a power cut
	// leaves behind).
	time.Sleep(200 * time.Millisecond)
	if err := c.CrashRestart(1); err != nil {
		t.Fatalf("crash-restart: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	cancel()
	wg.Wait()

	time.Sleep(60 * time.Millisecond) // let protections of interrupted commits lapse
	requireNoHolds(t, c.Nodes, "after the slow-disk run and the lease TTL")
	if commits.Load() == 0 {
		t.Fatal("slow-disk run committed nothing")
	}
	if ws := c.WALStats(); ws.Appends == 0 {
		t.Fatal("durable run never appended to a WAL")
	}
	auditTotal(t, c, accounts, accounts*initial)
	t.Logf("slow-fsync: %d commits across crash+cold-restart, balance conserved", commits.Load())
}
