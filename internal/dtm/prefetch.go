package dtm

import (
	"fmt"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// Prefetch is the transaction's read-ahead: it performs the first-access
// quorum read for several objects in one batched round — a single KindBatch
// request per quorum member carries one KindRead sub-request per object, so k
// first accesses cost one round-trip instead of k, and objects owned by
// several quorum groups are asked for in the same concurrent fan-out.
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
// Prefetch always fetches full values (the lean read strategy does not apply
// to batched rounds).
func (tx *Tx) Prefetch(ids ...store.ObjectID) error {
	if tx.traceID == "" {
		t0 := time.Now()
		err := tx.prefetchInner(ids, 0)
		tx.rt.stages.PrefetchBatch.Record(time.Since(t0))
		return err
	}
	span := trace.Span{
		Trace:  tx.traceID,
		ID:     trace.NextSpanID(),
		Parent: tx.span,
		Name:   "prefetch",
		Site:   tx.rt.site,
		Detail: fmt.Sprintf("%d objects", len(ids)),
		Start:  time.Now(),
	}
	err := tx.prefetchInner(ids, span.ID)
	span.End = time.Now()
	tx.rt.stages.PrefetchBatch.Record(span.End.Sub(span.Start))
	if err != nil {
		span.Detail = err.Error()
	}
	tx.rt.cfg.Tracer.RecordSpan(span)
	return err
}

// prefetchInner dedupes and filters the requested IDs, then runs one batched
// quorum round: one concurrent fan-out over a read quorum of every owning
// quorum group (a single group when unsharded). A group whose quorum answered
// in full is merged at once; a group that lost a member is asked again, alone,
// against a re-selected quorum. spanID (when non-zero) is stamped on the batch
// requests and their sub-reads so server spans nest under the client's
// prefetch span.
func (tx *Tx) prefetchInner(ids []store.ObjectID, spanID uint64) error {
	rt := tx.rt
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
	pending := []shard.Part{{IDs: need}}
	if rt.cfg.Shards != nil {
		pending = rt.cfg.Shards.Partition(need)
	}
	// A batched round is one read for the dynamic module's every-Nth-read
	// stats query; one member's answer is enough, as on a plain read.
	statsFor := rt.statsQuery()

	fo := rt.failover(tx.ctx, tx, tx.seed, wire.KindBatch, "prefetch quorum")
	for fo.next() {
		// Part i's quorum members are nodes[bounds[i-1].end:bounds[i].end].
		var nodes []quorum.NodeID
		legs := make([]leg, len(pending))
		for i, p := range pending {
			q, err := fo.readQuorum(p.Group)
			if err != nil {
				return err
			}
			nodes = append(nodes, q...)
			legs[i] = leg{tx.batchRead(p, spanID, nil), len(nodes)}
		}
		bounds := legs
		if len(statsFor) > 0 {
			legs = append([]leg{{tx.batchRead(pending[0], spanID, statsFor), 1}}, legs...)
			statsFor = nil
		}
		rt.metrics.RemoteReads.Add(1)
		rt.metrics.BatchReads.Add(1)
		rt.cfg.Tracer.Record(trace.KindRead, tx.id, "prefetch")

		results := rt.fanoutLegs(tx.ctx, nodes, legs)
		var failed []shard.Part
		start := 0
		for i, p := range pending {
			part := results[start:bounds[i].end]
			start = bounds[i].end
			if fo.failed(part) {
				failed = append(failed, p)
			} else if err := tx.mergePrefetch(p.IDs, part); err != nil {
				return err
			}
		}
		if len(failed) == 0 {
			return nil
		}
		pending = failed // re-select those groups' quorums without the failed members
	}
	return fo.err()
}

// batchRead builds the batched first-access request for one quorum group's
// share of a read-ahead. The first sub-request carries the group's
// incremental-validation list (replica-side validation is per-store, so once
// per node is enough) and, when statsFor is set, the piggybacked
// contention-stats query.
func (tx *Tx) batchRead(p shard.Part, spanID uint64, statsFor []store.ObjectID) *wire.Request {
	subs := make([]*wire.Request, len(p.IDs))
	for i, id := range p.IDs {
		subs[i] = tx.request(wire.KindRead, tx.id, spanID)
		subs[i].Read = &wire.ReadRequest{Object: id}
		if i == 0 {
			subs[i].Read.Validate = tx.validationListFor(p.Group)
			subs[i].Read.StatsFor = statsFor
		}
	}
	batch := tx.request(wire.KindBatch, tx.id, spanID)
	batch.Batch = &wire.BatchRequest{Subs: subs}
	return batch
}

// mergePrefetch folds one quorum group's batch responses into the read-ahead
// buffer, object by object exactly as a plain read of each would be folded.
// Only the first sub-request carried a validation list, so whatever the round
// invalidated is acted on before the first object is parked.
func (tx *Tx) mergePrefetch(need []store.ObjectID, results []callResult) error {
	rt := tx.rt
	top := tx.top()
	parked := 0
	// replies reshapes one object's sub-responses into one callResult per
	// member, the shape a plain read's replies have.
	replies := make([]callResult, 0, len(results))
	for i, id := range need {
		replies = replies[:0]
		for _, r := range results {
			if i < len(r.resp.Batch.Subs) && r.resp.Batch.Subs[i] != nil {
				replies = append(replies, callResult{node: r.node, resp: r.resp.Batch.Subs[i]})
			}
		}
		t := rt.tallyRead(replies, -1)
		if ae := tx.abortFor(t.invalid, "incremental validation on prefetch"); ae != nil {
			return ae
		}
		if t.answers == 0 {
			// Busy everywhere (a commit is in flight) or malformed replies:
			// leave the object to the Block body's own Read, which owns the
			// busy/backoff protocol.
			continue
		}
		if top.ahead == nil {
			top.ahead = make(map[store.ObjectID]readEntry, len(need))
		}
		top.ahead[id] = rt.settle(replies, t.best)
		parked++
	}
	rt.metrics.PrefetchedObjects.Add(uint64(parked))
	return nil
}
