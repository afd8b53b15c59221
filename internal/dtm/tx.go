package dtm

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// Tx is one attempt of a top-level transaction and of every Block (ACN
// closed-nested sub-transaction) it runs: one read log and one write set for
// the whole attempt, each entry tagged with the Block that made it, and an
// undo log of what every write replaced. A savepoint (Checkpoint) is the
// lengths of the read and undo logs, so every partial abort, a Block's re-run
// and the executor's rewind to an earlier Block alike, is the same rollback
// (RollBack): forget the reads after the savepoint and undo the writes after
// it, newest first.
type Tx struct {
	rt   *Runtime
	ctx  context.Context
	id   string
	seed int
	// incarnation is the top-level attempt index this transaction executes
	// as (the -aN suffix of id), carried for forensic abort events.
	incarnation int

	// deadline is the transaction's absolute deadline (UnixNano, 0: none),
	// stamped on every wire request so servers can refuse expired work
	// before touching locks or the WAL. Decision delivery is exempt.
	deadline int64
	// block identifies which ACN Block is executing: 0 outside any Sub, k
	// inside the k-th Sub of the transaction. subSeq counts the Sub calls
	// since the attempt began, less those a Restore took back.
	block  int
	subSeq int

	// blockCount/blockAnchors describe the compiled ACN composition this
	// transaction executes: how many Blocks it has and which source unit
	// (anchor atomic-block ID) each Block maps to. The ACN executor stamps
	// them via SetBlockMeta so forensic abort events can name the
	// decomposition unit a conflict hit; hand-written transactions leave
	// them unset.
	blockCount   int
	blockAnchors []int

	// traceID is the distributed-trace ID of the sampled top-level
	// transaction (empty: unsampled — every span site only times its stage,
	// keeping the hot path allocation-free). span is the enclosing client
	// span (attempt, try, or commit) that wire requests issued now parent to.
	traceID string
	span    uint64

	// reads maps first-accessed objects to the value and version observed at
	// fetch time; readOrder is the read log, first accesses in order, for
	// commit messages and savepoints.
	reads     map[store.ObjectID]readEntry
	readOrder []store.ObjectID
	// writes is the write set (QR-CN write-set).
	writes map[store.ObjectID]writeEntry
	// undo is the undo log: one record per Write, kept for the whole
	// attempt so every savepoint taken in it stays valid. It undoes by
	// reference, never by copy, which is safe because no transaction code can
	// change a buffered value in place: Write stores the caller's value
	// uncopied, and Read hands out store.Clone of it.
	undo []undoRecord

	// ahead is the read-ahead buffer: what Prefetch fetched and no Read or
	// Write has touched yet. An entry belongs to no Block until a Read or
	// Write moves it into the read set (takeAhead); until then it rides in
	// every incremental-validation list and is dropped, not aborted on, when
	// reported stale (abortFor). Allocated by the first Prefetch.
	ahead map[store.ObjectID]readEntry
	// lone is the object remoteRead's one-object round names, kept here so
	// that the round's need costs no allocation.
	lone [1]store.ObjectID
}

// readEntry is one first access, in the read set or still in the read-ahead
// buffer: the value and version a read quorum reported for the object, and
// the members of that quorum that answered with less (nil when none did) —
// noted here, repaired by repairReads once the transaction's outcome says the
// push is worth sending. A blind entry is a write's first access that read
// nothing (Write): ver is the assumed 0, "absent", and only the prepare
// checks it. block is the Block that first accessed the object.
type readEntry struct {
	val   store.Value
	ver   uint64
	stale []quorum.NodeID
	blind bool
	block int32
}

// writeEntry is one buffered write: the value and the Block that wrote it
// last — the dependency metadata the commit log records for parallel replay.
type writeEntry struct {
	val   store.Value
	block int32
}

// undoRecord is what one Write replaced: the object's previous write-set
// entry, or none (had false).
type undoRecord struct {
	id   store.ObjectID
	prev writeEntry
	had  bool
}

// ID returns the transaction identifier (unique per top-level attempt).
func (tx *Tx) ID() string { return tx.id }

// SetBlockMeta records the shape of the compiled composition this top-level
// transaction executes: count is the number of Blocks (including the
// top-level context as block 0) and anchors maps block index → anchor unit ID
// in the source decomposition. The slice is retained by reference — callers
// pass a compile-time-constant mapping, so no per-transaction copy is made.
func (tx *Tx) SetBlockMeta(count int, anchors []int) {
	tx.blockCount = count
	tx.blockAnchors = anchors
}

// Holds reports whether the object's first access is already paid for: it
// sits in the read set (as every written object does) or in the read-ahead
// buffer.
func (tx *Tx) Holds(id store.ObjectID) bool {
	_, read := tx.reads[id]
	_, ahead := tx.ahead[id]
	return read || ahead
}

// validationListFor gathers what a remote interaction with quorum group g
// validates incrementally: the read set plus the read-ahead buffer,
// restricted to the objects g owns (everything when unsharded). A group's
// members store only their own shard's objects, so foreign entries can
// neither validate nor invalidate there — sending them only wastes bytes.
// Blind entries are left out: nothing observed them. Commit-time prepares
// still validate every read, blind ones included, in its owning group.
func (tx *Tx) validationListFor(g *shard.Group) []store.ReadDesc {
	m := tx.rt.cfg.Shards
	var out []store.ReadDesc
	for _, id := range tx.readOrder {
		if e := tx.reads[id]; !e.blind && (m == nil || g == nil || m.GroupOf(id) == g) {
			out = append(out, store.ReadDesc{ID: id, Version: e.ver})
		}
	}
	for id, e := range tx.ahead {
		if m == nil || g == nil || m.GroupOf(id) == g {
			out = append(out, store.ReadDesc{ID: id, Version: e.ver})
		}
	}
	return out
}

// abortFor acts on an incremental-validation report. Objects still in the
// read-ahead buffer are dropped from it: no Block body has seen them, and the
// Block that wants one will fetch it fresh. If nothing else was named there
// is no abort (nil). Otherwise the rollback is partial (AbortSub) when every
// remaining object was first accessed by the executing Block; any object
// first accessed before it forces a full re-execution. Outside a Block every
// invalidation is a full abort.
func (tx *Tx) abortFor(invalid []store.ObjectID, reason string) *AbortError {
	observed := invalid[:0]
	for _, id := range invalid {
		if _, buffered := tx.ahead[id]; buffered {
			delete(tx.ahead, id)
		} else {
			observed = append(observed, id)
		}
	}
	if len(observed) == 0 {
		return nil
	}
	level := AbortParent
	if tx.block != 0 {
		level = AbortSub
		for _, id := range observed {
			if int(tx.reads[id].block) != tx.block {
				level = AbortParent
				break
			}
		}
	}
	return &AbortError{Level: level, Invalid: observed, Reason: reason,
		Cause: forensics.CauseReadValidation, Key: observed[0], Block: tx.block}
}

// busyAbort classifies a busy object the same way: a busy object being read
// for the first time belongs to the executing Block, so inside one the retry
// scope is the Block. holder is the conflict witness the server piggybacked
// on its Busy reply ("" when no witness survived).
func (tx *Tx) busyAbort(id store.ObjectID, holder, reason string) *AbortError {
	level := AbortParent
	if tx.block != 0 {
		level = AbortSub
	}
	return &AbortError{Level: level, Invalid: []store.ObjectID{id}, Busy: true, Reason: reason,
		Cause: forensics.CauseLockConflict, Key: id, ConflictTx: holder, Block: tx.block}
}

// Read returns the value of a shared object. The first access of an object
// in the transaction fetches it from a read quorum (remote interaction,
// QR-CN §II-B) and incrementally validates all previous reads — unless
// Prefetch already paid that round trip; later accesses are served from the
// private read/write sets.
func (tx *Tx) Read(id store.ObjectID) (store.Value, error) {
	if w, ok := tx.writes[id]; ok {
		return store.Clone(w.val), nil
	}
	if e, ok := tx.reads[id]; ok {
		return store.Clone(e.val), nil
	}
	v, err := tx.firstAccess(id)
	if err != nil {
		return nil, err
	}
	return store.Clone(v), nil
}

// Write buffers a new value for the object, tagged with the executing Block,
// and logs the entry it replaces. A write that is the object's first access
// observes nothing, so nothing is fetched: a read-ahead entry moves into the
// read set as on a Read, and any other object gets a blind entry at version 0
// ("assumed absent"). The prepare checks what the write assumed, and
// commitWrites reads it and prepares once more when that was all the prepare
// refused.
func (tx *Tx) Write(id store.ObjectID, v store.Value) error {
	prev, had := tx.writes[id]
	if _, ok := tx.reads[id]; !ok {
		if _, ok := tx.takeAhead(id); !ok {
			tx.recordRead(id, readEntry{blind: true})
		}
	}
	tx.undo = append(tx.undo, undoRecord{id: id, prev: prev, had: had})
	tx.writes[id] = writeEntry{val: v, block: int32(tx.block)}
	return nil
}

// firstAccess makes the executing Block the object's first accessor and
// returns the value now in the read set (not a copy): a read-ahead entry
// moves there (takeAhead); anything else is read remotely.
func (tx *Tx) firstAccess(id store.ObjectID) (store.Value, error) {
	if v, ok := tx.takeAhead(id); ok {
		return v, nil
	}
	return tx.remoteRead(id)
}

// takeAhead moves the object's read-ahead entry, if there is one, from the
// buffer into the read set, exactly as if the executing Block had just read
// it remotely, and returns its value.
func (tx *Tx) takeAhead(id store.ObjectID) (store.Value, bool) {
	e, ok := tx.ahead[id]
	if !ok {
		return nil, false
	}
	delete(tx.ahead, id)
	tx.recordRead(id, e)
	return e.val, true
}

// recordRead enters a first access of the executing Block into the read log.
func (tx *Tx) recordRead(id store.ObjectID, e readEntry) {
	e.block = int32(tx.block)
	tx.reads[id] = e
	tx.readOrder = append(tx.readOrder, id)
}

// request starts a wire request of this transaction: the given 2PC round's ID,
// the transaction's deadline and, when it is traced, the trace context with
// span as the parent of the server's spans.
func (tx *Tx) request(kind wire.Kind, txid string, span uint64) *wire.Request {
	req := &wire.Request{Kind: kind, TxID: txid, Deadline: tx.deadline}
	if tx.traceID != "" {
		req.TraceID = tx.traceID
		req.SpanID = span
	}
	return req
}

// remoteRead is a Block's own first access of an object the read-ahead did
// not buffer: one read round of that object (readRound). A member holding the
// object for a prepared writer waits for the writer's decision before it
// answers, so a round that still leaves the object busy met a hold that
// outlived that wait: the read aborts the executing Block at once (busyAbort,
// as the blind refetch does), and the Block's re-run, after a back-off, is the
// retry. It is timed into the Read stage (server waits included) and, when the
// transaction is sampled, is a "read" span whose ID rides on the request so
// server serve spans nest under it.
func (tx *Tx) remoteRead(id store.ObjectID) (_ store.Value, err error) {
	rt := tx.rt
	sp := rt.beginSpan(tx.traceID, tx.span, &rt.stages.Read, "read", -1)
	sp.Detail = string(id)
	defer func() { sp.end(err, "") }()
	tx.lone[0] = id
	n, busy, err := tx.readRound(tx.lone[:], sp.ID, "read quorum", nil)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return tx.reads[id].val, nil
	}
	return nil, tx.busyAbort(id, busy.holder, "object busy past the server's wait")
}

// appendNew appends the ids dst does not name yet. Replies name none or a
// handful, so a scan beats a set.
func appendNew(dst, ids []store.ObjectID) []store.ObjectID {
	for _, id := range ids {
		if !slices.Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Sub runs fn as a closed-nested sub-transaction (Block) on tx itself, from
// a savepoint taken at its start. Conflicts on objects first accessed inside
// fn roll back to the savepoint and re-run only fn (partial rollback);
// conflicts on earlier history propagate as parent-level aborts. On success
// fn's reads and writes simply stay in tx, tagged with the Block (the
// closed-nesting commit); on any other error they are rolled back. Nothing
// becomes globally visible until the top-level transaction commits.
func (tx *Tx) Sub(fn func(*Tx) error) error {
	if tx.block != 0 {
		return ErrNestingDepth
	}
	tx.subSeq++
	// One "block-K" span per Sub call with a nested "try-J" span per
	// execution, so a partial rollback shows up as extra tries under the same
	// block while the block's own duration captures the total retry cost.
	span := tx.span
	sp := tx.rt.beginSpan(tx.traceID, span, nil, "block", tx.subSeq)
	err := tx.runSub(fn, sp.ID)
	tx.block, tx.span = 0, span
	sp.end(err, "merged")
	return err
}

// runSub is Sub's partial-rollback retry loop. blockID is the enclosing
// block span (0 when unsampled). A Block that keeps rolling back past
// MaxSubAttempts escalates to a parent abort attributed like its last partial
// one: same cause, key, witness and Block.
func (tx *Tx) runSub(fn func(*Tx) error, blockID uint64) error {
	rt := tx.rt
	save := tx.Checkpoint()
	last := &AbortError{Block: tx.subSeq}
	for attempt := 0; attempt < rt.cfg.MaxSubAttempts; attempt++ {
		sp := rt.beginSpan(tx.traceID, blockID, nil, "try", attempt)
		tx.block, tx.span = tx.subSeq, sp.ID
		err := fn(tx)
		sp.end(err, "merged")
		if err == nil {
			return nil
		}
		ae, ok := AsAbort(err)
		if !ok || ae.Level != AbortSub {
			tx.Restore(save)
			return err
		}
		last = ae
		if err := tx.RollBack(save, ae, attempt); err != nil {
			return err
		}
	}
	escalated := *last
	escalated.Level, escalated.Reason = AbortParent, "sub-transaction retry budget exhausted"
	return &escalated
}

// commit finalizes a top-level transaction: two-phase commit against a write
// quorum of every quorum group it touched (commitWrites), or — for a
// read-only transaction — one validation round against read quorums and no
// 2PC. It is timed into the Commit stage and, when the transaction is
// sampled, is a "commit" span the 2PC requests parent to.
func (rt *Runtime) commit(ctx context.Context, tx *Tx) (err error) {
	sp := rt.beginSpan(tx.traceID, tx.span, &rt.stages.Commit, "commit", -1)
	tx.span = sp.ID
	defer func() { sp.end(err, "committed") }()
	if len(tx.readOrder) == 0 {
		return nil // every write has a first-access entry: nothing was touched
	}
	var one [1]commitPart
	parts := tx.commitParts(&one)
	if len(tx.writes) == 0 {
		err = rt.commitReadOnly(ctx, tx, parts)
	} else {
		err = rt.commitWrites(ctx, tx, parts)
		switch _, aborted := AsAbort(err); {
		case len(parts) > 1 && err == nil:
			rt.metrics.CrossShardCommits.Add(1)
		case len(parts) > 1 && aborted:
			rt.metrics.CrossShardAborts.Add(1)
		case rt.cfg.Shards != nil && err == nil:
			rt.metrics.SingleShardCommits.Add(1)
		}
	}
	if err == nil {
		rt.repairReads(tx)
	}
	return err
}

// commitParts lays out the top-level transaction's commit: every first access
// is validated at the version it saw or assumed, every write installs that
// version + 1, and — when it wrote anything — protections are taken on the
// whole read set. There is one part per touched quorum group, each naming
// only what that group owns; an unsharded cluster is one part over the
// whole-cluster tree, laid out in one so that it can live on the caller's
// stack.
func (tx *Tx) commitParts(one *[1]commitPart) []commitPart {
	reads := make([]store.ReadDesc, 0, len(tx.readOrder))
	for _, id := range tx.readOrder {
		reads = append(reads, store.ReadDesc{ID: id, Version: tx.reads[id].ver})
	}
	var writes []store.WriteDesc
	var release []store.ObjectID
	if len(tx.writes) > 0 {
		release = tx.readOrder
		writes = make([]store.WriteDesc, 0, len(tx.writes))
		for _, id := range tx.readOrder { // deterministic order
			if w, ok := tx.writes[id]; ok {
				writes = append(writes, store.WriteDesc{
					ID:         id,
					Value:      w.val,
					NewVersion: tx.reads[id].ver + 1,
					Block:      int(w.block),
				})
			}
		}
	}
	if m := tx.rt.cfg.Shards; m != nil {
		return partitionCommit(m, reads, writes, release)
	}
	one[0] = commitPart{reads: reads, writes: writes, release: release}
	return one[:]
}

// commitWrites is a read-write transaction's commit: one 2PC and, when its
// prepare was refused only because objects written blind (Write) are not
// absent after all, one more. Those objects' versions are read in one round
// and the commit is laid out again on them, so each write installs its
// object's version + 1, and prepared under a fresh round ID (a refused
// round's ID is spent, DESIGN §11). Anything else the first prepare refused,
// and any refusal of the second, aborts the transaction as usual; the first
// refusal itself is no abort.
func (rt *Runtime) commitWrites(ctx context.Context, tx *Tx, parts []commitPart) error {
	no, err := rt.prepareParts(ctx, tx, tx.id, parts)
	if err == nil || !tx.onlyBlind(no) {
		return err
	}
	if err := tx.refetch(no.invalid); err != nil {
		return err
	}
	var one [1]commitPart
	_, err = rt.prepareParts(ctx, tx, tx.id+"-b", tx.commitParts(&one))
	return err
}

// onlyBlind reports whether a refused prepare named stale objects and nothing
// else, every one of them written blind.
func (tx *Tx) onlyBlind(no refusal) bool {
	if len(no.invalid) == 0 || len(no.busy) > 0 {
		return false
	}
	for _, id := range no.invalid {
		if !tx.reads[id].blind {
			return false
		}
	}
	return true
}

// prepareParts is the 2PC of one commit layout, under round ID base. Each
// part's prepare names only its own group's reads and writes and goes to a
// write quorum of that group, but the durable Quorum membership on every
// prepare is the UNION of all parts' write-quorum members: after a coordinator
// crash, cooperative termination then interrogates cross-group participants
// too, so a commit delivered to any one group proves the outcome to the others
// — no group can TTL-abort a transaction a sibling group already committed.
// The transaction commits iff every member of every part votes yes; decisions
// then go out per part, carrying only that part's writes and release set. A
// single part — an unsharded cluster, or one shard — is the same protocol at
// its smallest: the selected quorum is the recorded membership, one request
// serves every member, and the decision is delivered on the caller's
// goroutine. The prepares of a round leave all at once or, while this
// runtime's rounds are being refused, each part's root first
// (prepareorder.go); the votes, the records and the decision are the same
// either way. A refused round's refusal is returned with its abort.
func (rt *Runtime) prepareParts(ctx context.Context, tx *Tx, base string, parts []commitPart) (refusal, error) {
	fo := rt.failover(ctx, tx.seed, wire.KindPrepare, "write quorum")
	for fo.next() {
		// One write quorum per part; any group short of a quorum fails the
		// whole commit (the exclude set spans the groups — each group's
		// selector ignores exclusions naming foreign nodes).
		var nodes []quorum.NodeID
		legs := make([]leg, len(parts))
		for i := range parts {
			wq, err := fo.writeQuorum(parts[i].group)
			if err != nil {
				return refusal{}, err
			}
			parts[i].quorum = wq
			if len(parts) == 1 {
				nodes = wq
			} else {
				nodes = append(nodes, wq...)
			}
			legs[i].end = len(nodes)
		}
		// Each prepare/decide round is its own 2PC incarnation with a
		// unique transaction ID: participants durably promise or terminate
		// per ID, so a round the coordinator abort-released must not share
		// an ID with the failover round that follows it.
		txid := base
		if fo.attempt > 0 {
			txid = fmt.Sprintf("%s-q%d", base, fo.attempt)
		}
		// Fresh requests per round (never mutated after the fan-out): a
		// timed-out call from the previous round may still be serializing
		// the old one on an async transport. Each participant durably
		// records the full membership with its yes vote, so after a
		// coordinator crash it knows which peers to ask for the decision
		// (cooperative termination).
		for i, p := range parts {
			legs[i].req = tx.request(wire.KindPrepare, txid, tx.span)
			legs[i].req.Prepare = &wire.PrepareRequest{Reads: p.reads, Writes: p.writes, Quorum: nodes}
		}
		rt.metrics.Prepares.Add(1)
		prepStart := time.Now()
		var results []callResult
		if rt.order.rootFirst() {
			results = rt.prepareRootFirst(ctx, nodes, legs)
		} else {
			results = rt.fanoutLegs(ctx, nodes, legs)
		}
		rt.stages.Prepare.Record(time.Since(prepStart))

		failed := fo.failed(results)
		yes, no := tallyVotes(results)
		rt.order.note(len(no.invalid)+len(no.busy) > 0)
		if yes == len(nodes) {
			rt.decideParts(ctx, tx, txid, true, parts, results)
			return refusal{}, nil
		}
		// Some participant said no or vanished: abort-release wherever a yes
		// vote left protections behind.
		rt.metrics.PrepareFails.Add(1)
		rt.decideParts(ctx, tx, txid, false, parts, results)
		if ae := no.abort("commit", failed); ae != nil {
			return no, ae
		}
	}
	return refusal{}, fo.err()
}

// commitReadOnly validates a transaction that wrote nothing: each part's
// reads against a read quorum of its group, in one round. The prepares carry
// no Quorum, which is what tells a server this is a validation-only vote —
// nothing is protected, so there is no decision to deliver.
func (rt *Runtime) commitReadOnly(ctx context.Context, tx *Tx, parts []commitPart) error {
	fo := rt.failover(ctx, tx.seed, wire.KindPrepare, "read-only validation")
	for fo.next() {
		var nodes []quorum.NodeID
		legs := make([]leg, len(parts))
		for i, p := range parts {
			q, err := fo.readQuorum(p.group)
			if err != nil {
				return err
			}
			nodes = append(nodes, q...)
			legs[i].end = len(nodes)
			legs[i].req = tx.request(wire.KindPrepare, tx.id, tx.span)
			legs[i].req.Prepare = &wire.PrepareRequest{Reads: p.reads}
		}
		rt.metrics.ReadOnlyFasts.Add(1)
		prepStart := time.Now()
		results := rt.fanoutLegs(ctx, nodes, legs)
		rt.stages.Prepare.Record(time.Since(prepStart))

		failed := fo.failed(results)
		yes, no := tallyVotes(results)
		if yes == len(nodes) {
			return nil
		}
		if ae := no.abort("read-only", failed); ae != nil {
			return ae
		}
	}
	return fo.err()
}

// refusal is what the no votes of one prepare round named.
type refusal struct {
	invalid, busy []store.ObjectID
	conflictTx    string // the first refusing member's conflict witness
}

// tallyVotes counts a prepare round's yes votes and collects its refusals,
// naming each refused object once however many members refused it; members
// that failed the round (failover.failed) or were not asked are neither.
func tallyVotes(results []callResult) (yes int, no refusal) {
	for _, r := range results {
		switch {
		case r.resp == nil:
		case r.resp.Prepare.Vote:
			yes++
		default:
			no.invalid = appendNew(no.invalid, r.resp.Prepare.Invalid)
			no.busy = appendNew(no.busy, r.resp.Prepare.Busy)
			if no.conflictTx == "" {
				no.conflictTx = r.resp.ConflictTx
			}
		}
	}
	return yes, no
}

// abort turns a prepare round that was not unanimous into the transaction's
// AbortError, or nil when the round is to be run again: nobody refused, but
// members failed. Stale reads outrank protected objects — a round refused by
// protections alone is a lock conflict, one that met a newer version is a
// validation failure whatever else was busy — and a no that names no object
// (the participant had already terminated this round's ID) is a rejection.
func (no refusal) abort(what string, failed bool) *AbortError {
	named := append(no.invalid, no.busy...)
	switch {
	case len(named) > 0:
		ae := &AbortError{Level: AbortParent, Invalid: named, Key: named[0],
			Reason: what + " validation failed", Cause: forensics.CauseReadValidation}
		if len(no.invalid) == 0 {
			ae.Busy = true
			ae.Cause = forensics.CauseLockConflict
			ae.ConflictTx = no.conflictTx
		}
		return ae
	case failed:
		return nil
	}
	return &AbortError{Level: AbortParent, Reason: what + " prepare rejected", Cause: forensics.CauseCommitRound}
}

// decideParts delivers a prepare round's decision part by part (results holds
// the parts' votes in part order), concurrently when there are several: decide
// retries its own stragglers within the decide budget, and cooperative
// termination covers the rest. A commit goes to each part's whole quorum, an
// abort only to the members that voted yes — the ones holding protections.
func (rt *Runtime) decideParts(ctx context.Context, tx *Tx, txid string, commit bool, parts []commitPart, results []callResult) {
	targets := func(p commitPart) (to []quorum.NodeID, writes []store.WriteDesc) {
		votes := results[:len(p.quorum)]
		results = results[len(p.quorum):]
		if commit {
			return p.quorum, p.writes
		}
		for _, r := range votes {
			if r.resp != nil && r.resp.Prepare.Vote {
				to = append(to, r.node)
			}
		}
		return to, nil
	}
	if len(parts) == 1 {
		to, writes := targets(parts[0])
		rt.decide(ctx, to, tx, txid, commit, writes, parts[0].release)
		return
	}
	var wg sync.WaitGroup
	for _, p := range parts {
		to, writes := targets(p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.decide(ctx, to, tx, txid, commit, writes, p.release)
		}()
	}
	wg.Wait()
}

// decide delivers the 2PC outcome to the participants. Once a yes-vote
// quorum exists the decision is made, so delivery must not depend on the
// caller still being interested: it runs on a context detached from ctx's
// cancellation, bounded only by Config.DecideTimeout, and retries un-acked
// participants with capped backoff. Participants that still miss the
// decision (coordinator crash, partition outlasting the budget) resolve it
// among themselves via the cooperative termination protocol.
func (rt *Runtime) decide(ctx context.Context, nodes []quorum.NodeID, tx *Tx, txid string, commit bool, writes []store.WriteDesc, release []store.ObjectID) {
	if len(nodes) == 0 {
		return
	}
	req := tx.request(wire.KindDecision, txid, tx.span)
	req.Deadline = 0 // exempt: a decided outcome must arrive however late it is
	req.Decision = &wire.DecisionRequest{Commit: commit, Writes: writes, Release: release}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rt.cfg.DecideTimeout)
	defer cancel()
	pending := nodes
	for round := 0; ; round++ {
		results := rt.fanout(dctx, pending, req)
		var unacked []quorum.NodeID
		for _, r := range results {
			if r.err != nil || r.resp == nil || r.resp.Status != wire.StatusOK {
				unacked = append(unacked, r.node)
			}
		}
		if len(unacked) == 0 {
			return
		}
		pending = unacked
		rt.metrics.DecisionRetries.Add(1)
		if err := rt.backoff(dctx, round); err != nil {
			break // decision budget exhausted
		}
	}
	rt.metrics.DecisionsDropped.Add(uint64(len(pending)))
}
