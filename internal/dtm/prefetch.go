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
// What it fetches is parked in a read-ahead buffer on the transaction, not
// in its read set. The first Read or Write of a buffered object — in
// whichever Block that happens — moves it into the read set tagged with that
// Block, so first-access ownership, the partial/full abort classification,
// commit-time validation and shard attribution are what they would be had
// that Block read the object remotely, and an object nobody touches never
// enters the read set or a prepare.
//
// Buffered entries ride in the incremental-validation list of every later
// remote interaction. One reported stale is dropped from the buffer (the
// Block that wants it reads it afresh) instead of aborting anything, since no
// Block body has observed it; a stale object that some Block did observe
// aborts with the same partial/full classification as on a plain read. Hence
// every value a body observes was valid at the transaction's latest remote
// interaction, which is what the per-read protocol guarantees.
//
// Objects the transaction already holds (read set or buffer) are skipped.
// An object the round leaves out as busy (settle: protected by a committing
// transaction, and no member reported a version) is not buffered — the Block
// body's own Read asks for it in a round of its own, and if that round still
// finds it busy, the busy abort rolls back that Block only.
//
// It dedupes and filters the requested IDs, then runs one read round
// (readRound) into the buffer — the round a Block's own Read runs for one
// object. The call is timed into the PrefetchBatch stage and, when the
// transaction is sampled, is a "prefetch" span whose ID rides on the read
// requests so server spans nest under it.
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
	if tx.ahead == nil {
		tx.ahead = make(map[store.ObjectID]readEntry, len(need))
	}
	parked, _, err := tx.readRound(need, sp.ID, "prefetch quorum", tx.ahead)
	rt.metrics.PrefetchedObjects.Add(uint64(parked))
	return err
}

// refetch reads, in one round, the versions of objects the transaction wrote
// blind and a prepare found present: their entries stop being blind and carry
// what the round saw. An object the round leaves out as busy aborts the
// transaction as a lock conflict, attributed to the holder its server named.
// Its requests parent to the commit span, as the prepares around it do.
func (tx *Tx) refetch(ids []store.ObjectID) error {
	_, busy, err := tx.readRound(ids, tx.span, "blind refetch quorum", tx.reads)
	if err != nil {
		return err
	}
	if busy.id != "" {
		return tx.busyAbort(busy.id, busy.holder, "blind write's object busy on its re-read")
	}
	return nil
}

// busyObject is an object a read round left out (settle): no member reported
// a version of it and some member answered busy. holder is the first busy
// member's conflict witness ("" when none came); id is "" when the round left
// nothing out.
type busyObject struct {
	id     store.ObjectID
	holder string
}

// readRound performs the first-access quorum read of need in one round. It is
// the one way a first access reaches the servers: a Block's own Read
// (remoteRead), the read-ahead (Prefetch) and the blind refetch. The round is
// one concurrent fan-out over a read quorum of every owning quorum group (a
// single group when unsharded or when need is one object), hedged when it
// asks a single group and HedgeAfter is set. A group whose quorum answered in
// full is merged at once; a group that lost a member is asked again, alone,
// against a re-selected quorum. Entries go into dst — the read-ahead buffer or
// the read set — or, when dst is nil, into the read log as the executing
// Block's first access; only rounds with a dst count in BatchReads. op names
// the operation in a budget error. It reports how many objects it entered and
// the first it left out as busy.
func (tx *Tx) readRound(need []store.ObjectID, spanID uint64, op string, dst map[store.ObjectID]readEntry) (entered int, busy busyObject, err error) {
	rt := tx.rt
	pending := []shard.Part{{Group: rt.groupFor(need[0]), IDs: need}}
	if len(need) > 1 && rt.cfg.Shards != nil {
		pending = rt.cfg.Shards.Partition(need)
	}
	var one [1]leg
	fo := rt.failover(tx.ctx, tx.seed, wire.KindRead, op)
	for fo.next() {
		// Part i's quorum members are nodes[legs[i-1].end:legs[i].end].
		var nodes []quorum.NodeID
		legs := one[:]
		if len(pending) > 1 {
			legs = make([]leg, len(pending))
		}
		for i, p := range pending {
			q, err := fo.readQuorum(p.Group)
			if err != nil {
				return entered, busy, err
			}
			if len(pending) == 1 {
				nodes = q
			} else {
				nodes = append(nodes, q...)
			}
			legs[i] = leg{tx.groupRead(p, spanID), len(nodes)}
		}
		rt.metrics.RemoteReads.Add(1)
		if dst != nil {
			rt.metrics.BatchReads.Add(1)
		}

		var results []callResult
		if d := rt.hedgeDelay(); d > 0 && len(pending) == 1 {
			results = rt.fanoutHedged(tx.ctx, pending[0].Group, nodes, legs[0].req, fo.excl, d)
			legs[0].end = len(results) // the answers collected, the spare's among them
		} else {
			results = rt.fanoutLegs(tx.ctx, nodes, legs)
		}
		var failed []shard.Part
		start := 0
		for i, p := range pending {
			part := results[start:legs[i].end]
			start = legs[i].end
			if fo.failed(part) {
				failed = append(failed, p)
				continue
			}
			n, b, err := tx.mergeRound(p.IDs, part, dst)
			entered += n
			if busy.id == "" {
				busy = b
			}
			if err != nil {
				return entered, busy, err
			}
		}
		if len(failed) == 0 {
			return entered, busy, nil
		}
		pending = failed // re-select those groups' quorums without the failed members
	}
	return entered, busy, fo.err()
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

// mergeRound folds one quorum group's replies into dst (the read log when dst
// is nil), object by object, and reports how many objects it entered and the
// first it left out as busy. Each member's validation report rides once on its
// response, so whatever the round invalidated is acted on before any object
// is entered.
func (tx *Tx) mergeRound(need []store.ObjectID, results []callResult, dst map[store.ObjectID]readEntry) (entered int, busy busyObject, err error) {
	var invalid []store.ObjectID
	for _, r := range results {
		if r.resp != nil && r.resp.Read != nil {
			invalid = appendNew(invalid, r.resp.Read.Invalid)
		}
	}
	if len(invalid) > 0 {
		if ae := tx.abortFor(invalid, "incremental validation on read of "+string(need[0])); ae != nil {
			return 0, busy, ae
		}
	}
	for i, id := range need {
		e, ok, holder := tx.rt.settle(results, i)
		if !ok {
			if busy.id == "" {
				busy = busyObject{id, holder}
			}
			continue
		}
		if dst == nil {
			tx.recordRead(id, e)
		} else {
			dst[id] = e
		}
		entered++
	}
	return entered, busy, nil
}

// settle folds what a round's members said of the i-th object their read
// named into the object's first-access entry: the highest version reported
// wins, and the members that answered with an older one, or with the
// object's absence, are named for repairReads. It is the one rule for
// entering an object: ok is false, and holder the first busy member's
// conflict witness, when no member reported a version and some member
// answered busy — a commit that writes the object is in flight.
func (rt *Runtime) settle(results []callResult, i int) (e readEntry, ok bool, holder string) {
	found, busy := false, false
	for _, r := range results {
		res, answered := objectResult(r, i)
		switch {
		case !answered:
		case res.Status == wire.StatusOK:
			if !found || res.Version > e.ver {
				e.val, e.ver, found = res.Value, res.Version, true
			}
		case res.Status == wire.StatusBusy:
			busy = true
			if holder == "" {
				holder = res.ConflictTx
			}
		}
	}
	if !found && busy {
		return readEntry{}, false, holder
	}
	if !rt.cfg.NoRepair && e.ver > 0 {
		e.stale = staleMembers(results, i, e.ver)
	}
	return e, true, ""
}

// objectResult is member r's answer for the i-th object its read named: the
// response itself for the first, the response's More entry for the rest. ok
// is false when the member gave none: no reply, no result for that object,
// or an OK reply without its payload.
func objectResult(r callResult, i int) (res wire.ReadResult, ok bool) {
	if r.resp == nil {
		return res, false
	}
	read := r.resp.Read
	if i > 0 {
		if read == nil || i > len(read.More) {
			return res, false
		}
		return read.More[i-1], true
	}
	res.Status, res.ConflictTx = r.resp.Status, r.resp.ConflictTx
	if read == nil {
		return res, res.Status != wire.StatusOK
	}
	res.Value, res.Version = read.Value, read.Version
	return res, true
}
