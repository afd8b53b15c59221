package dtm_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
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

// sentCall is one request a scriptedClient saw leave the runtime.
type sentCall struct {
	round int // the runtime's Failovers count when the call was made: 0 is the operation's first round
	to    quorum.NodeID
	req   *wire.Request
}

// scriptedClient sits between a runtime and the cluster's network: it records
// every call and lets a test answer chosen ones itself.
type scriptedClient struct {
	net transport.Client
	rt  *dtm.Runtime // set once the runtime exists; rounds are read off its Failovers counter
	// script may answer a call (a non-nil response or error) instead of the
	// network; nil leaves every call to the network.
	script func(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error)

	mu    sync.Mutex
	calls []sentCall
}

func (c *scriptedClient) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	c.calls = append(c.calls, sentCall{round: int(c.rt.Metrics().Failovers.Load()), to: to, req: req})
	c.mu.Unlock()
	if c.script != nil {
		if resp, err := c.script(ctx, to, req); resp != nil || err != nil {
			return resp, err
		}
	}
	return c.net.Call(ctx, to, req)
}

// sent returns the recorded calls whose request matches, in call order.
func (c *scriptedClient) sent(match func(*wire.Request) bool) []sentCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []sentCall
	for _, s := range c.calls {
		if match(s.req) {
			out = append(out, s)
		}
	}
	return out
}

// targets lists, sorted, the nodes the matching calls of one round went to.
func targets(calls []sentCall, round int) []quorum.NodeID {
	var out []quorum.NodeID
	for _, s := range calls {
		if s.round == round {
			out = append(out, s.to)
		}
	}
	slices.Sort(out)
	return out
}

// scriptedRuntime builds a runtime on c whose every call passes through a
// scriptedClient. The failure detector never suspects and the oracle says
// everyone is alive, so which members a round names is decided by the seed
// and the failover rule alone.
func scriptedRuntime(c *cluster.Cluster, cfg dtm.Config) (*dtm.Runtime, *scriptedClient) {
	sc := &scriptedClient{net: c.Net}
	cfg.Tree, cfg.Shards, cfg.Client = c.Tree, c.Shards, sc
	cfg.ClientSeed, cfg.Seed = 1, 1
	cfg.NoRepair = true
	cfg.Health = health.New(health.Config{SuspectAfter: math.MaxInt})
	sc.rt = dtm.New(cfg)
	return sc.rt, sc
}

func nodeDown(to quorum.NodeID) error {
	return &transport.Error{Kind: transport.ErrKindDial, Node: to, Err: transport.ErrNodeDown}
}

// twoGroupKeys returns one seeded key per shard of a two-shard map.
func twoGroupKeys(t *testing.T, c *cluster.Cluster) (a, b store.ObjectID) {
	t.Helper()
	for i := 0; a == "" || b == ""; i++ {
		if i > 1000 {
			t.Fatal("no key found for one of the two shards")
		}
		id := store.ID("k", i)
		if c.Shards.ShardFor(id) == 0 && a == "" {
			a = id
		} else if c.Shards.ShardFor(id) == 1 && b == "" {
			b = id
		}
	}
	return a, b
}

// TestQuorumFailoverRuleAcrossOperations drives the six quorum operations
// through the same four situations, so the failover rule — what fails a
// member, what a re-selection costs, when a loop stops, what the caller's
// error contains — is checked once for all of them.
func TestQuorumFailoverRuleAcrossOperations(t *testing.T) {
	isKind := func(k wire.Kind) func(*wire.Request) bool {
		return func(r *wire.Request) bool { return r.Kind == k }
	}
	prepare := func(r *wire.Request) bool { return r.Kind == wire.KindPrepare }
	statsRead := func(r *wire.Request) bool { return r.Kind == wire.KindRead && r.Read.Object == "" }
	bump := func(tx *dtm.Tx, id store.ObjectID) error {
		v, err := tx.Read(id)
		if err != nil {
			return err
		}
		return tx.Write(id, store.Int64(store.AsInt64(v)+1))
	}
	ops := []struct {
		name   string
		shards int                      // 0: one quorum tree over ten servers; 2: two groups of ten
		round  func(*wire.Request) bool // the requests of the operation's quorum round
		named  string                   // how a budget error names the operation
		run    func(ctx context.Context, rt *dtm.Runtime, a, b store.ObjectID) error
	}{
		{"single read", 0, isKind(wire.KindRead), "read quorum failover",
			func(ctx context.Context, rt *dtm.Runtime, a, _ store.ObjectID) error {
				return rt.Atomic(ctx, func(tx *dtm.Tx) error { _, err := tx.Read(a); return err })
			}},
		{"read-ahead round on two groups", 2, isKind(wire.KindRead), "prefetch quorum failover",
			func(ctx context.Context, rt *dtm.Runtime, a, b store.ObjectID) error {
				return rt.Atomic(ctx, func(tx *dtm.Tx) error { return tx.Prefetch(a, b) })
			}},
		{"unsharded commit", 0, prepare, "write quorum failover",
			func(ctx context.Context, rt *dtm.Runtime, a, _ store.ObjectID) error {
				return rt.Atomic(ctx, func(tx *dtm.Tx) error { return bump(tx, a) })
			}},
		{"cross-shard commit", 2, prepare, "quorum failover",
			func(ctx context.Context, rt *dtm.Runtime, a, b store.ObjectID) error {
				return rt.Atomic(ctx, func(tx *dtm.Tx) error {
					if err := bump(tx, a); err != nil {
						return err
					}
					return bump(tx, b)
				})
			}},
		{"read-only commit", 0, prepare, "read-only validation failover",
			func(ctx context.Context, rt *dtm.Runtime, a, _ store.ObjectID) error {
				return rt.Atomic(ctx, func(tx *dtm.Tx) error { _, err := tx.Read(a); return err })
			}},
		{"FetchStats", 0, statsRead, "", // no transaction, so no budget to spend
			func(ctx context.Context, rt *dtm.Runtime, a, _ store.ObjectID) error {
				_, err := rt.FetchStats(ctx, []store.ObjectID{a})
				return err
			}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			cfg := cluster.Config{Servers: 10, StatsWindow: time.Hour}
			if op.shards > 1 {
				cfg.Servers, cfg.Shards = 10*op.shards, op.shards
			}
			c := cluster.New(cfg)
			defer c.Close()
			a, b := store.ObjectID("x"), store.ObjectID("y") // b is used by the two-group operations only
			if op.shards > 1 {
				a, b = twoGroupKeys(t, c)
			}
			c.Seed(map[store.ObjectID]store.Value{a: store.Int64(0), b: store.Int64(0)})
			bg := context.Background()

			// Unscripted, the operation is one round; the member with the
			// highest ID in it is one its level can spare (a leaf of a write
			// quorum, any member of a read quorum). Every runtime below has
			// the same seeds, so its first round names the same members.
			rt, sc := scriptedRuntime(c, dtm.Config{})
			if err := op.run(bg, rt, a, b); err != nil {
				t.Fatalf("undisturbed: %v", err)
			}
			first := targets(sc.sent(op.round), 0)
			if n := rt.Metrics().Failovers.Load(); n != 0 || len(first) == 0 {
				t.Fatalf("undisturbed: %d failovers, round one went to %v", n, first)
			}
			victim := first[len(first)-1]

			t.Run("one member fails", func(t *testing.T) {
				rt, sc := scriptedRuntime(c, dtm.Config{})
				sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
					if op.round(req) && to == victim {
						return nil, nodeDown(to)
					}
					return nil, nil
				}
				if err := op.run(bg, rt, a, b); err != nil {
					t.Fatalf("operation failed although one re-selection avoids node %d: %v", victim, err)
				}
				calls := sc.sent(op.round)
				one, two := targets(calls, 0), targets(calls, 1)
				if n := rt.Metrics().Failovers.Load(); n != 1 {
					t.Fatalf("%d failovers, want exactly 1 (rounds: %v then %v)", n, one, two)
				}
				if !slices.Contains(one, victim) || len(two) == 0 || slices.Contains(two, victim) {
					t.Fatalf("round one %v must name node %d and round two %v must not", one, victim, two)
				}
			})

			t.Run("context cancelled during round one", func(t *testing.T) {
				rt, sc := scriptedRuntime(c, dtm.Config{})
				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				sc.script = func(_ context.Context, _ quorum.NodeID, req *wire.Request) (*wire.Response, error) {
					if op.round(req) {
						cancel()
						return nil, context.Canceled
					}
					return nil, nil
				}
				err := op.run(ctx, rt, a, b)
				if !errors.Is(err, context.Canceled) || errors.Is(err, dtm.ErrQuorumUnreachable) {
					t.Fatalf("got %v, want the context's error alone", err)
				}
				if n := rt.Metrics().Failovers.Load(); n != 0 {
					t.Fatalf("%d failovers for a caller that had given up, want 0", n)
				}
			})

			t.Run("retry budget runs out", func(t *testing.T) {
				// One retry: the first re-selection spends it, the second
				// finds the budget empty.
				rt, sc := scriptedRuntime(c, dtm.Config{RetryBudget: 1})
				sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
					if op.round(req) {
						return nil, nodeDown(to)
					}
					return nil, nil
				}
				err := op.run(bg, rt, a, b)
				if op.named == "" {
					if !errors.Is(err, dtm.ErrQuorumUnreachable) {
						t.Fatalf("got %v, want quorum unreachable: nothing charges a budget outside a transaction", err)
					}
					return
				}
				if !errors.Is(err, dtm.ErrRetriesExhausted) || !strings.Contains(err.Error(), op.named) {
					t.Fatalf("got %v, want ErrRetriesExhausted naming %q", err, op.named)
				}
				if m := rt.Metrics().Snapshot(); m.Failovers != 1 || m.BudgetExhausted != 1 {
					t.Fatalf("failovers %d, budget exhaustions %d, want 1 and 1", m.Failovers, m.BudgetExhausted)
				}
			})

			t.Run("every member fails", func(t *testing.T) {
				rt, sc := scriptedRuntime(c, dtm.Config{QuorumAttempts: 3})
				sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
					if op.round(req) {
						return nil, nodeDown(to)
					}
					return nil, nil
				}
				err := op.run(bg, rt, a, b)
				if !errors.Is(err, dtm.ErrQuorumUnreachable) || !errors.Is(err, transport.ErrNodeDown) {
					t.Fatalf("got %v, want quorum unreachable joined with the members' transport error", err)
				}
				calls := sc.sent(op.round)
				if n := rt.Metrics().Failovers.Load(); n != 2 || len(targets(calls, 2)) == 0 || len(targets(calls, 3)) != 0 {
					t.Fatalf("%d failovers, want QuorumAttempts-1 = 2 over exactly three rounds", n)
				}
			})
		})
	}
}

// TestFailoverExcludesMemberAnsweringStatusError: a member that answers a
// prepare with StatusError — what a server whose log has died says — did not
// vote, so it is excluded from the re-selected quorum like one that did not
// answer at all, and when no quorum is left the server's Detail reaches the
// caller.
func TestFailoverExcludesMemberAnsweringStatusError(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
	bg := context.Background()
	bump := func(rt *dtm.Runtime) error {
		return rt.Atomic(bg, func(tx *dtm.Tx) error {
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			return tx.Write("x", store.Int64(store.AsInt64(v)+1))
		})
	}
	prepare := func(r *wire.Request) bool { return r.Kind == wire.KindPrepare }
	walDead := &wire.Response{Status: wire.StatusError, Detail: "wal: boom", Prepare: &wire.PrepareResponse{}}

	// The last member of the recorded quorum is a leaf the rotation of the
	// next round's seed would pick again were it not excluded.
	rt, sc := scriptedRuntime(c, dtm.Config{})
	if err := bump(rt); err != nil {
		t.Fatal(err)
	}
	wq := sc.sent(prepare)[0].req.Prepare.Quorum
	victim := wq[len(wq)-1]

	rt, sc = scriptedRuntime(c, dtm.Config{})
	sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if prepare(req) && to == victim {
			return walDead, nil
		}
		return nil, nil
	}
	if err := bump(rt); err != nil {
		t.Fatalf("commit failed although the write quorum can do without node %d: %v", victim, err)
	}
	calls := sc.sent(prepare)
	one, two := targets(calls, 0), targets(calls, 1)
	if n := rt.Metrics().Failovers.Load(); n != 1 || !slices.Contains(one, victim) || slices.Contains(two, victim) {
		t.Fatalf("%d failovers, prepares to %v then %v: want 1, with node %d in the first round only", n, one, two, victim)
	}

	rt, sc = scriptedRuntime(c, dtm.Config{})
	sc.script = func(_ context.Context, _ quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if prepare(req) {
			return walDead, nil
		}
		return nil, nil
	}
	err := bump(rt)
	if !errors.Is(err, dtm.ErrQuorumUnreachable) || !strings.Contains(fmt.Sprint(err), "wal: boom") {
		t.Fatalf("got %v, want quorum unreachable carrying the servers' \"wal: boom\"", err)
	}
}

// TestSinglePartCommitParity pins what the one 2PC path sends for the
// smallest commit: an uncontended read-modify-write prepares exactly the
// members of one write quorum, names exactly those members as the durable
// Quorum, and delivers exactly one decision to each — on an unsharded cluster
// and, counted as a single-shard commit, under a shard map.
func TestSinglePartCommitParity(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := cluster.New(cluster.Config{Servers: 10, Shards: shards, StatsWindow: time.Hour})
			defer c.Close()
			c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
			rt, sc := scriptedRuntime(c, dtm.Config{})
			if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
				v, err := tx.Read("x")
				if err != nil {
					return err
				}
				return tx.Write("x", store.Int64(store.AsInt64(v)+1))
			}); err != nil {
				t.Fatal(err)
			}
			prepares := sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindPrepare })
			decisions := sc.sent(func(r *wire.Request) bool { return r.Kind == wire.KindDecision })
			wq := slices.Clone(prepares[0].req.Prepare.Quorum)
			slices.Sort(wq)

			// The recorded membership is a write quorum of the tree that owns x.
			tree := c.Tree
			if shards > 1 {
				g := c.Shards.GroupOf("x")
				tree = g.Tree()
				for _, n := range wq {
					if !g.Contains(n) {
						t.Fatalf("quorum member %d is outside x's group %v", n, g.Nodes())
					}
				}
			}
			for l := 0; l < tree.Levels(); l++ {
				have := 0
				for _, n := range tree.Level(l) {
					if slices.Contains(wq, n) {
						have++
					}
				}
				if have != len(tree.Level(l))/2+1 {
					t.Fatalf("recorded quorum %v holds %d of level %d's %d nodes, want a bare majority", wq, have, l, len(tree.Level(l)))
				}
			}
			if got := targets(prepares, 0); !slices.Equal(got, wq) {
				t.Fatalf("prepares went to %v, the quorum they name is %v", got, wq)
			}
			if got := targets(decisions, 0); !slices.Equal(got, wq) {
				t.Fatalf("decisions went to %v, want one to each of %v", got, wq)
			}
			for _, p := range prepares[1:] {
				if p.req != prepares[0].req {
					t.Fatal("the members of a single part were not all sent the one prepare request")
				}
			}
			for _, d := range decisions {
				if !d.req.Decision.Commit || d.req.Deadline != 0 {
					t.Fatalf("decision %+v (deadline %d): want a commit without a deadline", d.req.Decision, d.req.Deadline)
				}
			}
			m := rt.Metrics().Snapshot()
			wantSingle := uint64(0)
			if shards > 1 {
				wantSingle = 1
			}
			if m.Prepares != 1 || m.SingleShardCommits != wantSingle || m.CrossShardCommits != 0 || m.CrossShardAborts != 0 {
				t.Fatalf("prepare rounds %d, single-shard %d, cross-shard commits %d aborts %d; want 1, %d, 0, 0",
					m.Prepares, m.SingleShardCommits, m.CrossShardCommits, m.CrossShardAborts, wantSingle)
			}
		})
	}
}
