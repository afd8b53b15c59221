package dtm_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
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

// The prepare-order tests script the root of a ten-server tree: it refuses a
// chosen number of prepares, naming "x" as protected by "rival", and lets the
// rest through to the real node. Seventeen refusals are what it takes to see
// both sides of the switch: sixteen bring the register to rootFirstOn, the
// seventeenth is the first round sent root-first and refused.

func isPrepare(r *wire.Request) bool  { return r.Kind == wire.KindPrepare }
func isDecision(r *wire.Request) bool { return r.Kind == wire.KindDecision }

// refuseAt makes the scripted client answer the next n prepares addressed to
// one of the given nodes with a lock-conflict refusal of key.
func refuseAt(sc *scriptedClient, n int, key store.ObjectID, nodes ...quorum.NodeID) {
	var left atomic.Int64
	left.Store(int64(n))
	sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if isPrepare(req) && slices.Contains(nodes, to) && left.Add(-1) >= 0 {
			return &wire.Response{Status: wire.StatusOK, ConflictTx: "rival",
				Prepare: &wire.PrepareResponse{Busy: []store.ObjectID{key}}}, nil
		}
		return nil, nil
	}
}

// byAttempt groups the recorded calls that match by the 2PC round they belong
// to (the request's TxID), in the order the rounds were first seen.
func byAttempt(sc *scriptedClient, match func(*wire.Request) bool) (order []string, calls map[string][]sentCall) {
	calls = map[string][]sentCall{}
	for _, s := range sc.sent(match) {
		if _, seen := calls[s.req.TxID]; !seen {
			order = append(order, s.req.TxID)
		}
		calls[s.req.TxID] = append(calls[s.req.TxID], s)
	}
	return order, calls
}

func bumpKeys(rt *dtm.Runtime, ids ...store.ObjectID) error {
	return rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
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
	})
}

var fastBackoff = dtm.Config{BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond}

// TestChaosRootFirstPrepareOrder walks one runtime through the whole rule: a
// fresh runtime fans a prepare round out to all seven members at once; once
// sixteen of its last 64 rounds were refused the next round is one prepare,
// to the root, and a refusal there sends nothing else — no further prepare, no
// decision — and is reported from the root's reply alone; a yes sends the six
// other prepares and then seven decisions; and the runtime goes back to the
// parallel fan-out when the register has fallen to eight, not before.
func TestChaosRootFirstPrepareOrder(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
	root := c.Tree.Level(0)[0]
	rt, sc := scriptedRuntime(c, fastBackoff)

	if err := bumpKeys(rt, "x"); err != nil {
		t.Fatal(err)
	}
	if p, d := sc.sent(isPrepare), sc.sent(isDecision); len(p) != 7 || len(d) != 7 || rt.Metrics().RootFirstRounds.Load() != 0 {
		t.Fatalf("fresh runtime: %d prepares, %d decisions, %d root-first rounds; want one parallel round of 7 and 7",
			len(p), len(d), rt.Metrics().RootFirstRounds.Load())
	}

	// Seventeen refusals by the root, then a grant: one Atomic, 18 attempts.
	refuseAt(sc, 17, "x", root)
	if err := bumpKeys(rt, "x"); err != nil {
		t.Fatal(err)
	}
	rounds, prepares := byAttempt(sc, isPrepare)
	_, decisions := byAttempt(sc, isDecision)
	rounds = rounds[1:] // the fresh runtime's commit
	if len(rounds) != 18 {
		t.Fatalf("%d prepare rounds, want 17 refused and one granted", len(rounds))
	}
	for i, id := range rounds[:16] {
		// Parallel and refused by the root: the six that voted yes are
		// released, the root — which holds nothing — is sent no decision.
		d := decisions[id]
		if len(prepares[id]) != 7 || len(d) != 6 || slices.ContainsFunc(d, func(s sentCall) bool {
			return s.to == root || s.req.Decision.Commit
		}) {
			t.Fatalf("refused parallel round %d: %d prepares, %d decisions (%v); want 7 and 6 aborts, none to the root",
				i, len(prepares[id]), len(d), targets(d, 0))
		}
	}
	if p, d := prepares[rounds[16]], decisions[rounds[16]]; len(p) != 1 || p[0].to != root || len(d) != 0 {
		t.Fatalf("round after 16 refused of 64: %d prepares (to %v), %d decisions; want exactly 1 prepare, to the root, and no decision",
			len(p), targets(p, 0), len(d))
	}
	p, d := prepares[rounds[17]], decisions[rounds[17]]
	if len(p) != 7 || p[0].to != root || len(d) != 7 {
		t.Fatalf("granted root-first round: %d prepares (first to node %d), %d decisions; want 7 with the root first, then 7", len(p), p[0].to, len(d))
	}
	// The six were asked only after the root had answered, and every decision
	// follows every prepare: find the positions in the one call log.
	all := sc.sent(func(r *wire.Request) bool { return r.TxID == rounds[17] && (isPrepare(r) || isDecision(r)) })
	for i, s := range all {
		if want := i >= 7; isDecision(s.req) != want || (want && !s.req.Decision.Commit) {
			t.Fatalf("granted root-first round: call %d of %d is a %s; want 7 prepares then 7 commit decisions", i, len(all), s.req.Kind)
		}
	}
	m := rt.Metrics().Snapshot()
	if m.RootFirstRounds != 2 || m.RootRefusals != 1 || m.Prepares != 19 || m.Failovers != 0 {
		t.Fatalf("root-first rounds %d, root refusals %d, prepare rounds %d, failovers %d; want 2, 1, 19, 0",
			m.RootFirstRounds, m.RootRefusals, m.Prepares, m.Failovers)
	}

	// The refusal seen through the root alone is the lock conflict the root
	// reported, key and witness included.
	aborts := rt.Forensics().Aborts()
	if last := aborts[len(aborts)-1]; last.Cause != forensics.CauseLockConflict || last.Key != "x" || last.ConflictingTxID != "rival" {
		t.Fatalf("abort of the root-refused round: %+v; want a lock conflict on x held by rival", last)
	}

	// 19 rounds so far, 17 of them refused, all within the register. Granted
	// rounds push the refusals out one by one once the register is full: the
	// 17 have fallen to 8 after round 64+9 = 74, which is therefore the last
	// round sent root-first.
	for round := 20; round <= 76; round++ {
		before := rt.Metrics().RootFirstRounds.Load()
		if err := bumpKeys(rt, "x"); err != nil {
			t.Fatal(err)
		}
		rootFirst := rt.Metrics().RootFirstRounds.Load() > before
		if want := round <= 74; rootFirst != want {
			t.Fatalf("round %d sent root-first: %v, want %v (the register reaches 8 of 64 with round 74)", round, rootFirst, want)
		}
	}
}

// TestChaosRootFirstTwoGroups: a commit over two quorum groups asks both
// groups' roots in stage one and nobody else; when one of them refuses, the
// other — the only member holding anything — gets the only abort decision, and
// the members that were never asked get nothing.
func TestChaosRootFirstTwoGroups(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 20, Shards: 2, StatsWindow: time.Hour})
	defer c.Close()
	a, b := twoGroupKeys(t, c)
	c.Seed(map[store.ObjectID]store.Value{a: store.Int64(0), b: store.Int64(0)})
	headA, headB := c.Shards.GroupOf(a).Nodes()[0], c.Shards.GroupOf(b).Nodes()[0]
	rt, sc := scriptedRuntime(c, fastBackoff)

	refuseAt(sc, 17, a, headA)
	if err := bumpKeys(rt, a, b); err != nil {
		t.Fatal(err)
	}
	rounds, prepares := byAttempt(sc, isPrepare)
	_, decisions := byAttempt(sc, isDecision)
	if len(rounds) != 18 {
		t.Fatalf("%d prepare rounds, want 17 refused and one granted", len(rounds))
	}
	refused, granted := rounds[16], rounds[17]
	if got := targets(prepares[refused], 0); !slices.Equal(got, []quorum.NodeID{headA, headB}) {
		t.Fatalf("stage one of a two-group round went to %v, want the two roots %d and %d only", got, headA, headB)
	}
	if d := decisions[refused]; len(d) != 1 || d[0].to != headB || d[0].req.Decision.Commit {
		t.Fatalf("round refused by group A's root: decisions to %v, want one abort to group B's root %d", targets(d, 0), headB)
	}
	p := prepares[granted]
	wq := p[0].req.Prepare.Quorum
	if len(p) != len(wq) || len(decisions[granted]) != len(wq) {
		t.Fatalf("granted round: %d prepares and %d decisions for a membership of %d", len(p), len(decisions[granted]), len(wq))
	}
	if first := targets(p[:2], 0); !slices.Equal(first, []quorum.NodeID{headA, headB}) {
		t.Fatalf("granted round asked %v first, want the two roots", first)
	}
	if m := rt.Metrics().Snapshot(); m.RootFirstRounds != 2 || m.RootRefusals != 1 || m.CrossShardCommits != 1 {
		t.Fatalf("root-first rounds %d, root refusals %d, cross-shard commits %d; want 2, 1, 1", m.RootFirstRounds, m.RootRefusals, m.CrossShardCommits)
	}
}

// TestFailoverRootFirstLeavesNotAskedMembersAlone: when the root fails a
// root-first round — an error, not a vote — the round fails over like any
// other, but the six members it never asked are neither failures nor voters:
// they are sent no decision, and the next round selects among them freely
// and commits.
func TestFailoverRootFirstLeavesNotAskedMembersAlone(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
	root := c.Tree.Level(0)[0]
	rt, sc := scriptedRuntime(c, fastBackoff)
	refuseAt(sc, 16, "x", root)
	if err := bumpKeys(rt, "x"); err != nil {
		t.Fatal(err)
	}
	if n := rt.Metrics().RootFirstRounds.Load(); n != 1 {
		t.Fatalf("%d root-first rounds after 16 refusals and a grant, want 1", n)
	}

	var failedOnce atomic.Bool
	sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if isPrepare(req) && to == root && failedOnce.CompareAndSwap(false, true) {
			return nil, nodeDown(to)
		}
		return nil, nil
	}
	if err := bumpKeys(rt, "x"); err != nil {
		t.Fatalf("commit failed although only one call to the root was lost: %v", err)
	}
	rounds, prepares := byAttempt(sc, isPrepare)
	_, decisions := byAttempt(sc, isDecision)
	lost, retried := rounds[len(rounds)-2], rounds[len(rounds)-1]
	if p := prepares[lost]; len(p) != 1 || p[0].to != root || len(decisions[lost]) != 0 {
		t.Fatalf("round whose root failed: %d prepares, %d decisions; want the one lost prepare and nothing else", len(p), len(decisions[lost]))
	}
	if !strings.HasSuffix(retried, "-q1") || len(prepares[retried]) != 7 || len(decisions[retried]) != 7 {
		t.Fatalf("failover round %q: %d prepares, %d decisions; want a second incarnation with a whole quorum", retried, len(prepares[retried]), len(decisions[retried]))
	}
	if m := rt.Metrics().Snapshot(); m.Failovers != 1 || m.ParentAborts != 16 {
		t.Fatalf("failovers %d, aborts %d; want 1 failover and no abort beyond the 16 scripted ones", m.Failovers, m.ParentAborts)
	}
}

// TestChaosRootFirstCoordinatorDiesBetweenStages: a coordinator that dies
// after the root voted yes and before anybody else was asked leaves exactly
// one participant in doubt. The root's peers never heard of the transaction,
// so each promises abort, and the root aborts on that — no TTL wait, no write
// applied, no protection left anywhere.
func TestChaosRootFirstCoordinatorDiesBetweenStages(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour,
		Node: server.Config{ResolveAfter: time.Millisecond, TTLAbortAfter: time.Hour}})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"x": store.Int64(0)})
	root := c.Tree.Level(0)[0]
	cfg := fastBackoff
	cfg.DecideTimeout = 5 * time.Millisecond
	rt, sc := scriptedRuntime(c, cfg)
	refuseAt(sc, 16, "x", root)
	if err := bumpKeys(rt, "x"); err != nil {
		t.Fatal(err)
	}
	committed, _ := c.Nodes[root].Store().Version("x")

	// From the first stage-two prepare on, the process is dead: that message
	// and every later prepare and decision are never sent.
	errKilled := errors.New("coordinator killed")
	var dead atomic.Bool
	sc.script = func(_ context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
		if isPrepare(req) && to != root {
			dead.Store(true)
		}
		if dead.Load() && (isPrepare(req) || isDecision(req)) {
			return nil, errKilled
		}
		return nil, nil
	}
	if err := bumpKeys(rt, "x"); !errors.Is(err, errKilled) {
		t.Fatalf("got %v, want the dead coordinator's error", err)
	}
	if got := c.Nodes[root].InDoubt(); len(got) != 1 || c.Resolution().InDoubt != 1 {
		t.Fatalf("in doubt at the root: %v, cluster-wide %d; want the root alone holding one vote", got, c.Resolution().InDoubt)
	}

	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for c.Resolution().InDoubt > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt vote not drained: %+v", c.Resolution())
		}
		time.Sleep(time.Millisecond) // ResolveAfter
		c.ResolveAll(ctx)
	}
	if r := c.Resolution(); r.PeerAborts != 1 || r.PeerCommits != 0 || r.TTLAborts != 0 {
		t.Fatalf("resolution %+v; want the root's one vote aborted on its peers' promises", r)
	}
	for _, n := range c.Nodes {
		for id, o := range n.Store().Snapshot() {
			if o.Protected || len(o.SharedBy) > 0 || o.Version > committed {
				t.Fatalf("node %d, %s: version %d, exclusive %q, shared %v; want no hold and nothing newer than version %d, committed before the kill",
					n.ID(), id, o.Version, o.ProtectedBy, o.SharedBy, committed)
			}
		}
	}
}
