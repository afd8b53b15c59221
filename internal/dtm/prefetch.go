package dtm

import (
	"fmt"

	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// Prefetch is the transaction's read-ahead: it performs the first-access
// quorum read for several objects in one batched round — a single read per
// quorum member names every object its group owns (wire.ReadRequest.More), so
// k first accesses cost one round-trip and one request instead of k, and
// objects owned by several quorum groups are asked for in the same concurrent
// fan-out.
//
// What it fetches is parked in a read-ahead buffer on the top-level
// transaction, not in any read set. The first Read or Write of a buffered
// object — in whichever context (Block) that happens — moves it into that
// context's read set, so first-access ownership, the partial/full abort
// classification, commit-time validation and shard attribution are what they
// would be had that context read the object remotely, and an object nobody
// touches never enters a read set or a prepare.
//
// Buffered entries ride in the incremental-validation list of every later
// remote interaction. One reported stale is dropped from the buffer (the
// Block that wants it reads it afresh) instead of aborting anything, since no
// Block body has observed it; a stale object that some context did observe
// aborts with the same partial/full classification as on a plain read. Hence
// every value a body observes was valid at the transaction's latest remote
// interaction, which is what the per-read protocol guarantees.
//
// Objects the chain already holds (read set, write set or buffer) are
// skipped. Objects that are busy (protected by a committing transaction) or
// unreadable on every quorum member are skipped too — the Block body's own
// Read will retry them through the usual busy/backoff path, and a busy abort
// there rolls back that Block only.
//
// Like a plain read, every quorum member is asked for the value.
//
// It dedupes and filters the requested IDs, then runs one batched quorum
// round (readRound) into the buffer. The call is timed into the PrefetchBatch
// stage and, when the transaction is sampled, is a "prefetch" span whose ID
// rides on the read requests so server spans nest under it.
func (tx *Tx) Prefetch(ids ...store.ObjectID) (err error) {
	rt := tx.rt
	sp := rt.beginSpan(tx.traceID, tx.span, &rt.stages.PrefetchBatch, "prefetch", -1)
	defer func() {
		var ok string
		if sp.sampled() {
			ok = fmt.Sprintf("%d objects", len(ids))
		}
		sp.end(err, ok)
	}()
	need := make([]store.ObjectID, 0, len(ids))
	seen := make(map[store.ObjectID]bool, len(ids))
	for _, id := range ids {
		if !seen[id] && !tx.Holds(id) {
			need = append(need, id)
		}
		seen[id] = true
	}
	if len(need) == 0 {
		return nil
	}
	top := tx.top()
	if top.ahead == nil {
		top.ahead = make(map[store.ObjectID]readEntry, len(need))
	}
	parked, err := tx.readRound(need, sp.ID, "prefetch quorum", top.ahead)
	rt.metrics.PrefetchedObjects.Add(uint64(parked))
	return err
}

// refetch reads, in one batched round, the versions of objects the
// transaction wrote blind and a prepare found present: their entries stop
// being blind and carry what the round saw. An object busy on every member
// asked aborts the transaction as a lock conflict. Its requests parent to the
// commit span, as the prepares around it do.
func (tx *Tx) refetch(ids []store.ObjectID) error {
	if _, err := tx.readRound(ids, tx.span, "blind refetch quorum", tx.reads); err != nil {
		return err
	}
	for _, id := range ids {
		if tx.reads[id].blind {
			return tx.busyAbort(id, "", "blind write's object busy on its re-read")
		}
	}
	return nil
}

// readRound performs the first-access quorum read of need in one batched
// round and enters each object a member answered for into dst; an object
// busy everywhere is left out. The round is one concurrent fan-out over a
// read quorum of every owning quorum group (a single group when unsharded). A
// group whose quorum answered in full is merged at once; a group that lost a
// member is asked again, alone, against a re-selected quorum. op names the
// operation in a budget error. It reports how many objects it entered.
func (tx *Tx) readRound(need []store.ObjectID, spanID uint64, op string, dst map[store.ObjectID]readEntry) (int, error) {
	rt := tx.rt
	pending := []shard.Part{{IDs: need}}
	if rt.cfg.Shards != nil {
		pending = rt.cfg.Shards.Partition(need)
	}
	entered := 0
	fo := rt.failover(tx.ctx, tx, tx.seed, wire.KindRead, op)
	for fo.next() {
		// Part i's quorum members are nodes[bounds[i-1].end:bounds[i].end].
		var nodes []quorum.NodeID
		legs := make([]leg, len(pending))
		for i, p := range pending {
			q, err := fo.readQuorum(p.Group)
			if err != nil {
				return entered, err
			}
			nodes = append(nodes, q...)
			legs[i] = leg{tx.groupRead(p, spanID), len(nodes)}
		}
		rt.metrics.RemoteReads.Add(1)
		rt.metrics.BatchReads.Add(1)

		results := rt.fanoutLegs(tx.ctx, nodes, legs)
		var failed []shard.Part
		start := 0
		for i, p := range pending {
			part := results[start:legs[i].end]
			start = legs[i].end
			if fo.failed(part) {
				failed = append(failed, p)
				continue
			}
			n, err := tx.mergeRound(p.IDs, part, dst)
			entered += n
			if err != nil {
				return entered, err
			}
		}
		if len(failed) == 0 {
			return entered, nil
		}
		pending = failed // re-select those groups' quorums without the failed members
	}
	return entered, fo.err()
}

// groupRead builds the first-access read of one quorum group's share of a
// round: one request naming every object, with the group's
// incremental-validation list (replica-side validation is per-store, so once
// per node is enough). A share of one object is a plain read.
func (tx *Tx) groupRead(p shard.Part, spanID uint64) *wire.Request {
	req := tx.request(wire.KindRead, tx.id, spanID)
	req.Read = &wire.ReadRequest{Object: p.IDs[0], Validate: tx.validationListFor(p.Group)}
	if len(p.IDs) > 1 {
		req.Read.More = p.IDs[1:]
	}
	return req
}

// mergeRound folds one quorum group's replies into dst, object by object
// exactly as a plain read of each would be folded, and reports how many
// objects it entered. The first object's replies are the members' responses
// themselves, and carry the one validation report, so whatever the round
// invalidated is acted on before any object is entered. Each further
// object's result is viewed as the response a plain read of it would have
// had, in one slab of views reused object after object: tallyRead and settle
// keep nothing of a reply.
func (tx *Tx) mergeRound(need []store.ObjectID, results []callResult, dst map[store.ObjectID]readEntry) (int, error) {
	rt := tx.rt
	entered := 0
	var views []objectReply
	var more []callResult
	if len(need) > 1 {
		views = make([]objectReply, len(results))
		more = make([]callResult, 0, len(results))
	}
	for i, id := range need {
		replies := results
		if i > 0 {
			more = more[:0]
			for j, r := range results {
				if read := r.resp.Read; read != nil && i <= len(read.More) {
					more = append(more, callResult{node: r.node, resp: views[j].of(&read.More[i-1])})
				}
			}
			replies = more
		}
		t := rt.tallyRead(replies)
		if ae := tx.abortFor(t.invalid, "incremental validation on batched read"); ae != nil {
			return entered, ae
		}
		if t.answers == 0 {
			// Busy everywhere (a commit is in flight) or malformed replies:
			// leave the object to whoever owns the busy/backoff protocol —
			// a read-ahead's Block body's own Read.
			continue
		}
		dst[id] = rt.settle(replies, t.best)
		entered++
	}
	return entered, nil
}

// objectReply is the response a one-object read would have had, rebuilt from
// one result of a multi-object read.
type objectReply struct {
	resp wire.Response
	read wire.ReadResponse
}

func (v *objectReply) of(m *wire.ReadResult) *wire.Response {
	v.read = wire.ReadResponse{Value: m.Value, Version: m.Version}
	v.resp = wire.Response{Status: m.Status, ConflictTx: m.ConflictTx, Read: &v.read}
	return &v.resp
}
