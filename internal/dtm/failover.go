package dtm

import (
	"context"
	"errors"
	"fmt"

	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// failover is the one statement of the quorum-failover rule. Every quorum
// operation — a read, a read-ahead round, the 2PC prepare, a read-only
// validation, a stats query — is a "for fo.next() { select; send; tally }"
// loop over it that ends in "return fo.err()".
//
// The rule. A member fails a round when its call returned an error or its
// reply is no answer to what it was asked (answered): StatusError, or a
// payload that is missing. Failed members enter the operation's exclude set,
// so the next selection avoids them before the failure detector has seen
// enough to suspect them. Every round after the first is a failover: it takes
// one retry from the transaction attempt's budget (an operation outside a
// transaction has none to charge), counts one Failovers and records one
// KindFailover event. The loop stops after QuorumAttempts rounds, when the
// budget is spent (ErrRetriesExhausted naming the operation), when no quorum
// can be selected, and — with the context's error alone — when a round failed
// under a context that is already dead: that round says nothing about the
// members, and its caller has stopped waiting. Otherwise the caller gets
// ErrQuorumUnreachable joined with the last member's failure, which for a
// refusing server carries its Status and Detail.
//
// It is a plain struct, not a helper taking closures, so a loop that never
// fails over allocates nothing for it.
type failover struct {
	rt   *Runtime
	ctx  context.Context
	tx   *Tx       // nil outside a transaction: no retry budget to charge
	seed int       // round k selects with seed+k, rotating level and member choice
	kind wire.Kind // what the members are asked, hence what counts as an answer
	op   string    // names the operation in the budget error and the trace event

	attempt int               // index of the current round (-1 before the first)
	excl    quorum.ExcludeSet // members that failed an earlier round
	lastErr error             // the most recent member failure
	stop    error             // why next returned false
}

func (rt *Runtime) failover(ctx context.Context, tx *Tx, seed int, kind wire.Kind, op string) failover {
	return failover{rt: rt, ctx: ctx, tx: tx, seed: seed, kind: kind, op: op, attempt: -1}
}

// next starts the next round. False means the operation is over and err says
// why.
func (f *failover) next() bool {
	if f.stop != nil {
		return false
	}
	rt := f.rt
	if attempt := f.attempt + 1; attempt < rt.cfg.QuorumAttempts {
		if attempt > 0 && !f.charge() {
			return false
		}
		f.attempt = attempt
		return true
	}
	f.stop = errors.Join(ErrQuorumUnreachable, f.lastErr)
	return false
}

// charge accounts for one failover — a round after the first — and reports
// whether the budget allowed it.
func (f *failover) charge() bool {
	who := f.op
	if f.tx != nil {
		if f.stop = f.tx.takeRetry(f.op + " failover"); f.stop != nil {
			return false
		}
		who = f.tx.id
	}
	f.rt.metrics.Failovers.Add(1)
	f.rt.cfg.Tracer.Record(trace.KindFailover, who, f.op+" re-selection")
	return true
}

// err is why the loop ended without a result.
func (f *failover) err() error { return f.stop }

// readQuorum selects this round's read quorum within g (the whole-cluster
// tree when g is nil), avoiding the members that failed earlier rounds. An
// error is the operation's final one.
func (f *failover) readQuorum(g *shard.Group) ([]quorum.NodeID, error) {
	return f.selected(f.rt.selectQuorum(f.rt.readQuorumOf(g), f.seed+f.attempt, f.excl))
}

// writeQuorum is readQuorum for write quorums.
func (f *failover) writeQuorum(g *shard.Group) ([]quorum.NodeID, error) {
	return f.selected(f.rt.selectQuorum(f.rt.writeQuorumOf(g), f.seed+f.attempt, f.excl))
}

func (f *failover) selected(q []quorum.NodeID, err error) ([]quorum.NodeID, error) {
	if err != nil {
		f.stop = errors.Join(ErrQuorumUnreachable, err)
		return nil, f.stop
	}
	return q, nil
}

// failed applies the rule to one round's results (or one group's share of
// them) and reports whether any member failed. A reply that is no answer is
// turned into that member's error in place, so the caller's tally sees two
// kinds of result only: an answer with its payload present, or no reply
// (resp == nil) — with the member's error, or with none for a member the
// round never asked (a root-first prepare round that its root refused sends
// nothing to the others): such a member did not fail and is not excluded.
func (f *failover) failed(results []callResult) bool {
	any := false
	for i := range results {
		r := &results[i]
		if r.err == nil {
			if r.resp == nil || answered(f.kind, r.resp) {
				continue
			}
			r.err = fmt.Errorf("dtm: node %d refused %s: %s %s", r.node, f.kind, r.resp.Status, r.resp.Detail)
		}
		r.resp = nil
		f.lastErr = r.err
		if f.excl == nil {
			f.excl = make(quorum.ExcludeSet)
		}
		f.excl[r.node] = true
		any = true
	}
	if any {
		f.stop = f.ctx.Err()
	}
	return any
}

// answered reports whether resp answers a request of the given kind: the
// payload a tally reads is there, or — for a read — the replica said the
// object is absent or protected, which are answers too (a version of zero,
// and backpressure the read's own busy loop handles). Everything else, a
// StatusError above all, is a member that did not do what the quorum needed.
func answered(kind wire.Kind, resp *wire.Response) bool {
	switch resp.Status {
	case wire.StatusOK:
		switch kind {
		case wire.KindRead:
			return resp.Read != nil
		case wire.KindBatch:
			return resp.Batch != nil
		case wire.KindPrepare:
			return resp.Prepare != nil
		}
	case wire.StatusNotFound, wire.StatusBusy:
		return kind == wire.KindRead
	}
	return false
}
