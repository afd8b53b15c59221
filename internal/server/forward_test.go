package server

import (
	"context"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// resolvingNode is a volatile node whose in-doubt entries are due for
// resolution at once and never old enough for a TTL abort.
func resolvingNode(id quorum.NodeID) *Node {
	n := NewNode(id, Config{StatsWindow: time.Hour, ResolveAfter: time.Nanosecond, TTLAbortAfter: time.Hour})
	n.Store().SeedBatch(map[store.ObjectID]store.Value{"a": store.Int64(1), "b": store.Int64(2)})
	return n
}

// mustVote prepares p on every node and fails unless each votes yes.
func mustVote(t *testing.T, tx string, p *wire.PrepareRequest, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		if resp := prepare(n, tx, p); resp.Prepare == nil || !resp.Prepare.Vote {
			t.Fatalf("node %d: prepare %s: %+v", n.ID(), tx, resp)
		}
	}
}

// silentForwards delivers like a network would: nothing once the caller's
// context has ended, and to one peer nothing but status queries — any other
// call to it, the forwarded decision, hangs until the context ends, like a
// call to a process that hung after answering.
type silentForwards struct {
	peers  directClient
	silent quorum.NodeID
}

func (c silentForwards) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if to == c.silent && req.Kind != wire.KindTxStatus {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return c.peers.Call(ctx, to, req)
}

// TestChaosSilentPeerDoesNotStallResolution: one resolver pass has two due
// entries. The first learns its commit from a peer and must forward it to two
// peers still in doubt, one of which never answers the forward. The other
// in-doubt peer and the second entry are resolved in the same pass anyway;
// only the silent peer's own call waits out the pass's context.
func TestChaosSilentPeerDoesNotStallResolution(t *testing.T) {
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = resolvingNode(quorum.NodeID(i))
	}
	// tx-1: every node votes; node 3 alone hears the commit. Node 1 comes
	// before node 2 in the recorded quorum, so its forward is sent first.
	tx1 := &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "a", Version: 1}, {ID: "b", Version: 1}},
		Writes: []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}},
		Quorum: []quorum.NodeID{0, 1, 2, 3},
	}
	mustVote(t, "tx-1", tx1, nodes...)
	if d := nodes[3].Handle(context.Background(), &wire.Request{Kind: wire.KindDecision, TxID: "tx-1",
		Decision: &wire.DecisionRequest{Commit: true, Writes: tx1.Writes, Release: []store.ObjectID{"a", "b"}}}); d.Status != wire.StatusOK {
		t.Fatalf("coordinator decision at node 3: %+v", d)
	}
	// tx-2: node 0 votes; node 3, the only other member, never saw it.
	mustVote(t, "tx-2", &wire.PrepareRequest{Reads: []store.ReadDesc{{ID: "a", Version: 1}}, Quorum: []quorum.NodeID{0, 3}}, nodes[0])

	client := silentForwards{peers: directClient{1: nodes[1], 2: nodes[2], 3: nodes[3]}, silent: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if got := nodes[0].ResolveNow(ctx, client); got != 2 {
		t.Fatalf("the pass resolved %d entries, want both", got)
	}
	if s := nodes[0].ResolutionStats(); s.PeerCommits != 1 || s.PeerAborts != 1 || s.ResolveForwards != 2 || s.InDoubt != 0 {
		t.Fatalf("resolver: %+v, want one peer commit, one peer abort, two forwards, nothing in doubt", s)
	}
	if s := nodes[2].ResolutionStats(); s.PeerCommits != 1 || s.InDoubt != 0 {
		t.Fatalf("node 2 after the forward: %+v, want its entry committed as a peer's outcome", s)
	}
	if _, ver, _ := nodes[2].Store().Get("b"); ver != 2 {
		t.Fatalf("node 2 holds b at version %d, want the forwarded commit's 2", ver)
	}
	if ids := nodes[1].InDoubt(); len(ids) != 1 {
		t.Fatalf("the silent peer's in-doubt table is %v; it never received the forward", ids)
	}
}

// TestForwardedDecisionCountsAsPeerResolution: the Forwarded bit is what
// tells a peer's outcome from the coordinator's at the receiver.
func TestForwardedDecisionCountsAsPeerResolution(t *testing.T) {
	p := &wire.PrepareRequest{
		Reads:  []store.ReadDesc{{ID: "b", Version: 1}},
		Writes: []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}},
		Quorum: []quorum.NodeID{0, 1},
	}
	for _, tc := range []struct {
		name      string
		forwarded bool
		want      ResolutionStats
	}{
		{"coordinator", false, ResolutionStats{}},
		{"forwarded", true, ResolutionStats{PeerCommits: 1}},
	} {
		n := resolvingNode(0)
		mustVote(t, "tx", p, n)
		d := n.Handle(context.Background(), &wire.Request{Kind: wire.KindDecision, TxID: "tx",
			Decision: &wire.DecisionRequest{Commit: true, Forwarded: tc.forwarded, Writes: p.Writes, Release: []store.ObjectID{"b"}}})
		if d.Status != wire.StatusOK {
			t.Fatalf("%s: %+v", tc.name, d)
		}
		if s := n.ResolutionStats(); s != tc.want {
			t.Fatalf("%s decision: %+v, want %+v", tc.name, s, tc.want)
		}
	}
}

// TestDecisionAppliesOwnPreparedWrites: a node that holds the prepare record
// applies the writes it promised there, whoever sends the decision and
// whatever writes the decision carries; only a node without the record takes
// the sender's.
func TestDecisionAppliesOwnPreparedWrites(t *testing.T) {
	promised := []store.WriteDesc{{ID: "b", Value: store.Int64(9), NewVersion: 2}}
	other := []store.WriteDesc{{ID: "a", Value: store.Int64(5), NewVersion: 2}}
	for _, forwarded := range []bool{false, true} {
		n := resolvingNode(0)
		mustVote(t, "tx", &wire.PrepareRequest{
			Reads: []store.ReadDesc{{ID: "b", Version: 1}}, Writes: promised, Quorum: []quorum.NodeID{0, 1},
		}, n)
		d := n.Handle(context.Background(), &wire.Request{Kind: wire.KindDecision, TxID: "tx",
			Decision: &wire.DecisionRequest{Commit: true, Forwarded: forwarded, Writes: other, Release: []store.ObjectID{"b"}}})
		if d.Status != wire.StatusOK {
			t.Fatalf("forwarded=%v: %+v", forwarded, d)
		}
		if v, ver, _ := n.Store().Get("b"); ver != 2 || store.AsInt64(v) != 9 {
			t.Fatalf("forwarded=%v: b = %v@%d, want the promised 9@2", forwarded, v, ver)
		}
		if _, ver, _ := n.Store().Get("a"); ver != 1 {
			t.Fatalf("forwarded=%v: a moved to version %d on writes this node never promised", forwarded, ver)
		}
	}

	// No record: the decision's writes are all there is.
	n := resolvingNode(0)
	if d := n.Handle(context.Background(), &wire.Request{Kind: wire.KindDecision, TxID: "tx",
		Decision: &wire.DecisionRequest{Commit: true, Forwarded: true, Writes: other}}); d.Status != wire.StatusOK {
		t.Fatalf("decision without a record: %+v", d)
	}
	if v, ver, _ := n.Store().Get("a"); ver != 2 || store.AsInt64(v) != 5 {
		t.Fatalf("a = %v@%d, want the sender's 5@2", v, ver)
	}
}
