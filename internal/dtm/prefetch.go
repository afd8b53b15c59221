package dtm

import (
	"errors"
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

	var lastErr error
	var excl quorum.ExcludeSet
	for attempt := 0; attempt < rt.cfg.QuorumAttempts; attempt++ {
		if attempt > 0 {
			if !tx.takeRetry() {
				return errBudget("prefetch quorum failover")
			}
			rt.metrics.Failovers.Add(1)
			rt.cfg.Tracer.Record(trace.KindFailover, tx.id, "prefetch quorum re-selection")
		}
		// Part i's quorum members are nodes[bounds[i]:bounds[i+1]].
		var nodes []quorum.NodeID
		var reqs []*wire.Request
		bounds := []int{0}
		for _, p := range pending {
			q, err := rt.selectReadQuorumIn(p.Group, tx.seed+attempt, excl)
			if err != nil {
				return errors.Join(ErrQuorumUnreachable, err)
			}
			batch := tx.batchRead(p, spanID, nil)
			nodes = append(nodes, q...)
			for range q {
				reqs = append(reqs, batch)
			}
			bounds = append(bounds, len(nodes))
		}
		if len(statsFor) > 0 {
			reqs[0] = tx.batchRead(pending[0], spanID, statsFor)
			statsFor = nil
		}
		rt.metrics.RemoteReads.Add(1)
		rt.metrics.BatchReads.Add(1)
		rt.cfg.Tracer.Record(trace.KindRead, tx.id, "prefetch")

		results := rt.fanoutEach(tx.ctx, nodes, func(i int) *wire.Request { return reqs[i] })
		var failed []shard.Part
		for i, p := range pending {
			part := results[bounds[i]:bounds[i+1]]
			var unreachable bool
			if excl, unreachable = recordFailed(excl, part); unreachable {
				failed = append(failed, p)
				for _, r := range part {
					if r.err != nil {
						lastErr = r.err
					}
				}
				continue
			}
			if err := tx.mergePrefetch(p.IDs, part); err != nil {
				return err
			}
		}
		if len(failed) == 0 {
			return nil
		}
		if err := tx.ctx.Err(); err != nil {
			return err
		}
		pending = failed // re-select those groups' quorums without the failed members
	}
	return errors.Join(ErrQuorumUnreachable, lastErr)
}

// batchRead builds the batched first-access request for one quorum group's
// share of a read-ahead. The first sub-request carries the group's
// incremental-validation list (replica-side validation is per-store, so once
// per node is enough) and, when statsFor is set, the piggybacked
// contention-stats query.
func (tx *Tx) batchRead(p shard.Part, spanID uint64, statsFor []store.ObjectID) *wire.Request {
	subs := make([]*wire.Request, len(p.IDs))
	for i, id := range p.IDs {
		rr := &wire.ReadRequest{Object: id}
		if i == 0 {
			rr.Validate = tx.validationListFor(p.Group)
			rr.StatsFor = statsFor
		}
		subs[i] = &wire.Request{Kind: wire.KindRead, TxID: tx.id, Deadline: tx.deadline, Read: rr}
		if spanID != 0 {
			subs[i].TraceID = tx.traceID
			subs[i].SpanID = spanID
		}
	}
	batch := &wire.Request{Kind: wire.KindBatch, TxID: tx.id, Deadline: tx.deadline, Batch: &wire.BatchRequest{Subs: subs}}
	if spanID != 0 {
		batch.TraceID = tx.traceID
		batch.SpanID = spanID
	}
	return batch
}

// mergePrefetch folds one quorum group's batch responses into the read-ahead
// buffer.
func (tx *Tx) mergePrefetch(need []store.ObjectID, results []callResult) error {
	rt := tx.rt

	// Union the incremental-validation reports across all replicas and subs.
	var invalid []store.ObjectID
	var seenInv map[store.ObjectID]bool
	for _, r := range results {
		if r.resp.Status != wire.StatusOK || r.resp.Batch == nil {
			continue
		}
		for _, sub := range r.resp.Batch.Subs {
			if sub == nil || sub.Read == nil {
				continue
			}
			for _, inv := range sub.Read.Invalid {
				if !seenInv[inv] {
					if seenInv == nil {
						seenInv = make(map[store.ObjectID]bool)
					}
					seenInv[inv] = true
					invalid = append(invalid, inv)
				}
			}
			if sub.Read.Stats != nil && rt.cfg.StatsSink != nil {
				rt.cfg.StatsSink(sub.Read.Stats)
			}
		}
	}
	if len(invalid) > 0 {
		if ae := tx.abortFor(invalid, "incremental validation on prefetch"); ae != nil {
			return ae
		}
	}

	top := tx.top()
	parked := 0
	for i, id := range need {
		var best *wire.ReadResponse
		okCount := 0
		// perMember reshapes this object's sub-responses into one callResult
		// per member, so the read-repair stale scan applies unchanged.
		perMember := make([]callResult, 0, len(results))
		for _, r := range results {
			if r.resp.Status != wire.StatusOK || r.resp.Batch == nil || i >= len(r.resp.Batch.Subs) {
				continue
			}
			sub := r.resp.Batch.Subs[i]
			if sub == nil {
				continue
			}
			perMember = append(perMember, callResult{node: r.node, resp: sub})
			switch sub.Status {
			case wire.StatusOK:
				okCount++
				if sub.Read != nil && (best == nil || sub.Read.Version > best.Version) {
					best = sub.Read
				}
			case wire.StatusNotFound:
				okCount++ // absence is an answer: version 0
			}
		}
		if okCount == 0 {
			// Busy everywhere (a commit is in flight) or malformed replies:
			// leave the object to the Block body's own Read, which owns the
			// busy/backoff protocol.
			continue
		}
		var e readEntry
		if best != nil {
			e = readEntry{val: best.Value, ver: best.Version}
		}
		rt.maybeRepair(id, perMember, e.val, e.ver)
		if top.ahead == nil {
			top.ahead = make(map[store.ObjectID]readEntry, len(need))
		}
		top.ahead[id] = e
		parked++
	}
	rt.metrics.PrefetchedObjects.Add(uint64(parked))
	return nil
}
