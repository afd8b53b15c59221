package dtm

import (
	"context"
	"math/bits"
	"sync"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// Prepare order. A write quorum is a majority of every level of its group's
// tree and level 0 is the root alone, so the root is a member of every write
// quorum of the group: two transactions that conflict always meet there, and
// the root's vote alone says whether a conflicting transaction got there
// first. While prepares are being granted that does not matter and a round is
// one parallel fan-out to the whole quorum. While they are being refused, a
// parallel round pays for a full fan-out to learn what its first message
// would have said, leaves protections on the members that did vote yes until
// the abort decision reaches them, and lets two colliding transactions refuse
// each other — each holding the members it reached first — so that both
// abort. A root-first round (prepareRootFirst) asks each part's head, the
// first member of its quorum, and the others only once every head has voted
// yes: a refused round costs one message per part and no abort decision,
// exactly one of two colliding transactions wins the root and with it the
// commit, and the winner pays one more round trip.
//
// Which of the two a runtime sends is a property it observes, not an option:
// a shift register of the outcomes of its last 64 read-write prepare rounds
// (1: refused, some member named a stale or protected object; member
// failures are not refusals). Root-first turns on when rootFirstOn of the 64
// were refused and off when no more than rootFirstOff were. The gap between
// the two is deliberate: a population of coordinators in mixed modes is the
// one regime worse than either — a root-first transaction holding only the
// root loses the other members to a parallel one that the root then refuses,
// and both abort — so a runtime near a threshold must not flap across it
// (EXPERIMENTS.md "Root-first prepares and no repair for rewritten rows" has
// the measurements behind both numbers).
const (
	rootFirstOn  = 16
	rootFirstOff = 8
)

// prepareOrder is a runtime's refusal register and the mode it implies.
type prepareOrder struct {
	mu      sync.Mutex
	refused uint64 // bit k: the k-th most recent prepare round was refused
	on      bool
}

// rootFirst reports the mode for the round about to be sent.
func (o *prepareOrder) rootFirst() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.on
}

// note shifts one read-write prepare round's outcome into the register and
// sets the mode it implies.
func (o *prepareOrder) note(refused bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refused <<= 1
	if refused {
		o.refused |= 1
	}
	switch count := bits.OnesCount64(o.refused); {
	case count >= rootFirstOn:
		o.on = true
	case count <= rootFirstOff:
		o.on = false
	}
}

// prepareRootFirst is a prepare round in two stages. nodes and legs are those
// of the parallel round: the parts' quorums end to end, one leg per part.
// Stage one sends each part's prepare to that part's head; stage two, only
// when every head voted yes, to the remaining members. The results are in
// quorum order like a parallel round's; a member that was not asked has
// neither a reply nor an error, and is neither a voter nor a failure.
func (rt *Runtime) prepareRootFirst(ctx context.Context, nodes []quorum.NodeID, legs []leg) []callResult {
	rt.metrics.RootFirstRounds.Add(1)
	results := make([]callResult, len(nodes))
	for i, n := range nodes {
		results[i].node = n
	}
	heads := make([]quorum.NodeID, len(legs))
	headLegs := make([]leg, len(legs))
	rest := make([]quorum.NodeID, 0, len(nodes)-len(legs))
	restLegs := make([]leg, len(legs))
	start := 0
	for i, l := range legs {
		heads[i] = nodes[start]
		headLegs[i] = leg{l.req, i + 1}
		rest = append(rest, nodes[start+1:l.end]...)
		restLegs[i] = leg{l.req, len(rest)}
		start = l.end
	}

	granted := true
	start = 0
	for i, r := range rt.fanoutLegs(ctx, heads, headLegs) {
		results[start] = r
		start = legs[i].end
		granted = granted && r.err == nil && answered(wire.KindPrepare, r.resp) && r.resp.Prepare.Vote
	}
	if !granted {
		rt.metrics.RootRefusals.Add(1)
		return results
	}

	votes := rt.fanoutLegs(ctx, rest, restLegs)
	start = 0
	for _, l := range legs {
		votes = votes[copy(results[start+1:l.end], votes):]
		start = l.end
	}
	return results
}
