package dtm

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"qracn/internal/backoff"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// Tx is a transaction context. A top-level context (parent == nil) holds the
// merged history of every committed sub-transaction; a child context holds
// only the accesses made since the sub-transaction began, so aborting it
// discards exactly the work the closed-nesting model allows to be redone.
type Tx struct {
	rt   *Runtime
	ctx  context.Context
	id   string
	seed int
	// incarnation is the top-level attempt index this context executes
	// under (the -aN suffix of id), carried for forensic abort events.
	incarnation int

	// deadline is the transaction's absolute deadline (UnixNano, 0: none),
	// stamped on every wire request so servers can refuse expired work
	// before touching locks or the WAL. Decision delivery is exempt.
	deadline int64
	// budget is the attempt's shared retry budget, charged by quorum
	// failovers, busy re-reads, and overload backpressure waits.
	budget *backoff.Budget

	parent *Tx

	// block identifies which ACN Block (closed-nested sub-transaction) this
	// context executes: 0 for the top-level context, k for the k-th Sub of
	// the transaction. subSeq counts Sub calls on a top-level context, and
	// writeBlock (top level only) remembers, per written object, the block
	// whose write survives in the merged write-set — the dependency metadata
	// the commit log records for parallel replay.
	block      int
	subSeq     int
	writeBlock map[store.ObjectID]int

	// blockCount/blockAnchors (top level only) describe the compiled ACN
	// composition this transaction executes: how many Blocks it has and which
	// source unit (anchor atomic-block ID) each Block maps to. The ACN
	// executor stamps them via SetBlockMeta so forensic abort events can name
	// the decomposition unit a conflict hit; hand-written transactions leave
	// them unset.
	blockCount   int
	blockAnchors []int

	// traceID is the distributed-trace ID of the sampled top-level
	// transaction this context belongs to (empty: unsampled — every span
	// branch below is skipped, keeping the hot path allocation-free). span is
	// the enclosing client span (attempt, try, or commit) that wire requests
	// issued by this context parent to.
	traceID string
	span    uint64

	// reads maps first-accessed objects to the value and version observed at
	// fetch time; readOrder preserves access order for commit messages.
	reads     map[store.ObjectID]readEntry
	readOrder []store.ObjectID
	// writes buffers this context's writes (QR-CN write-set).
	writes map[store.ObjectID]store.Value

	// child (top level only) is the one sub-transaction context the
	// transaction's Blocks take turns in: Blocks run one at a time and merge
	// or discard everything they hold before the next starts, so runSub
	// empties it instead of building a context and its maps per Block and
	// per try.
	child *Tx

	// ahead (top level only) is the read-ahead buffer: what Prefetch fetched
	// and no context has touched yet. An entry belongs to no Block until a
	// Read or Write moves it into that context's read set (firstAccess);
	// until then it rides in every incremental-validation list and is
	// dropped, not aborted on, when reported stale (abortFor). Allocated by
	// the first Prefetch.
	ahead map[store.ObjectID]readEntry
}

// readEntry is one first access, in a read set or still in the read-ahead
// buffer: the value and version a read quorum reported for the object, and
// the members of that quorum that answered with less (nil when none did) —
// noted here, repaired by repairReads once the transaction's outcome says the
// push is worth sending.
type readEntry struct {
	val   store.Value
	ver   uint64
	stale []quorum.NodeID
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

// takeRetry charges one retry — a quorum failover, a busy re-read, or any
// other second try — against the attempt's shared budget. Once the budget is
// gone it returns the error that fails the transaction instead of retrying
// further, naming the operation that wanted the retry.
func (tx *Tx) takeRetry(op string) error {
	if tx.budget.Take() {
		return nil
	}
	tx.rt.metrics.BudgetExhausted.Add(1)
	return fmt.Errorf("%w: retry budget spent during %s", ErrRetriesExhausted, op)
}

// InSub reports whether tx is a sub-transaction context.
func (tx *Tx) InSub() bool { return tx.parent != nil }

// lookupWrite finds a buffered write in this context chain.
func (tx *Tx) lookupWrite(id store.ObjectID) (store.Value, bool) {
	for c := tx; c != nil; c = c.parent {
		if v, ok := c.writes[id]; ok {
			return v, true
		}
	}
	return nil, false
}

// lookupRead finds a cached read in this context chain.
func (tx *Tx) lookupRead(id store.ObjectID) (store.Value, bool) {
	for c := tx; c != nil; c = c.parent {
		if e, ok := c.reads[id]; ok {
			return e.val, true
		}
	}
	return nil, false
}

// firstAccessedHere reports whether the *current* context (not an ancestor)
// first accessed the object.
func (tx *Tx) firstAccessedHere(id store.ObjectID) bool {
	_, ok := tx.reads[id]
	return ok
}

// top returns the chain's top-level context, which owns the read-ahead
// buffer.
func (tx *Tx) top() *Tx {
	if tx.parent != nil {
		return tx.parent
	}
	return tx
}

// Holds reports whether the object's first access is already paid for: it
// sits in a read or write set of the context chain, or in the read-ahead
// buffer.
func (tx *Tx) Holds(id store.ObjectID) bool {
	if _, ok := tx.top().ahead[id]; ok {
		return true
	}
	if _, ok := tx.lookupRead(id); ok {
		return true
	}
	_, ok := tx.lookupWrite(id)
	return ok
}

// validationListFor gathers what a remote interaction with quorum group g
// validates incrementally: the chain's read-set plus the read-ahead buffer,
// restricted to the objects g owns (everything when unsharded). A group's
// members store only their own shard's objects, so foreign entries can
// neither validate nor invalidate there — sending them only wastes bytes.
// Commit-time prepares still validate every read in its owning group.
func (tx *Tx) validationListFor(g *shard.Group) []store.ReadDesc {
	m := tx.rt.cfg.Shards
	var out []store.ReadDesc
	for c := tx; c != nil; c = c.parent {
		for _, id := range c.readOrder {
			if m == nil || g == nil || m.GroupOf(id) == g {
				out = append(out, store.ReadDesc{ID: id, Version: c.reads[id].ver})
			}
		}
	}
	for id, e := range tx.top().ahead {
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
// remaining object was first accessed by the currently executing
// sub-transaction; any object owned by the parent's history forces a full
// re-execution. At top level every invalidation is a full abort.
func (tx *Tx) abortFor(invalid []store.ObjectID, reason string) *AbortError {
	ahead := tx.top().ahead
	observed := invalid[:0]
	for _, id := range invalid {
		if _, buffered := ahead[id]; buffered {
			delete(ahead, id)
		} else {
			observed = append(observed, id)
		}
	}
	if len(observed) == 0 {
		return nil
	}
	level := AbortParent
	if tx.parent != nil {
		level = AbortSub
		for _, id := range observed {
			if !tx.firstAccessedHere(id) {
				level = AbortParent
				break
			}
		}
	}
	return &AbortError{Level: level, Invalid: observed, Reason: reason,
		Cause: forensics.CauseReadValidation, Key: observed[0], Block: tx.block}
}

// busyAbort classifies a busy object the same way: a busy object being read
// for the first time belongs to the current context, so in a sub-transaction
// the retry scope is the sub-transaction. holder is the conflict witness the
// server piggybacked on its Busy reply ("" when no witness survived).
func (tx *Tx) busyAbort(id store.ObjectID, holder, reason string) *AbortError {
	level := AbortParent
	if tx.parent != nil {
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
	v, ok := tx.lookupWrite(id)
	if !ok {
		v, ok = tx.lookupRead(id)
	}
	if !ok {
		var err error
		if v, err = tx.firstAccess(id); err != nil {
			return nil, err
		}
	}
	if v == nil {
		return nil, nil
	}
	return v.CloneValue(), nil
}

// Write buffers a new value for the object in the current context. Per
// QR-CN, the first access of an object — even a write — fetches it remotely
// so the transaction learns its current version.
func (tx *Tx) Write(id store.ObjectID, v store.Value) error {
	if _, ok := tx.lookupWrite(id); !ok {
		if _, ok := tx.lookupRead(id); !ok {
			if _, err := tx.firstAccess(id); err != nil {
				return err
			}
		}
	}
	tx.writes[id] = v
	if tx.parent == nil {
		tx.writeBlock[id] = tx.block
	}
	return nil
}

// firstAccess makes the current context the object's first accessor and
// returns the value now in its read set (not a copy): a read-ahead entry
// moves from the buffer into this context's read set, exactly as if this
// context had just read it remotely; anything else is read remotely.
func (tx *Tx) firstAccess(id store.ObjectID) (store.Value, error) {
	ahead := tx.top().ahead
	e, ok := ahead[id]
	if !ok {
		return tx.remoteRead(id)
	}
	delete(ahead, id)
	tx.recordRead(id, e)
	return e.val, nil
}

// recordRead enters a first access into the current context's read set.
func (tx *Tx) recordRead(id store.ObjectID, e readEntry) {
	tx.reads[id] = e
	tx.readOrder = append(tx.readOrder, id)
}

// remoteRead performs the quorum read protocol for a first access. It wraps
// remoteReadInner with the Read stage histogram and, when the transaction is
// traced, a "read" span whose ID rides on the request so server serve spans
// nest under it.
func (tx *Tx) remoteRead(id store.ObjectID) (store.Value, error) {
	rt := tx.rt
	if tx.traceID == "" {
		t0 := time.Now()
		v, err := tx.remoteReadInner(id, 0)
		rt.stages.Read.Record(time.Since(t0))
		return v, err
	}
	span := trace.Span{
		Trace:  tx.traceID,
		ID:     trace.NextSpanID(),
		Parent: tx.span,
		Name:   "read",
		Site:   rt.site,
		Detail: string(id),
		Start:  time.Now(),
	}
	v, err := tx.remoteReadInner(id, span.ID)
	span.End = time.Now()
	rt.stages.Read.Record(span.End.Sub(span.Start))
	if err != nil {
		span.Detail = string(id) + ": " + err.Error()
	}
	rt.cfg.Tracer.RecordSpan(span)
	return v, err
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

// remoteReadInner is the quorum read protocol body. spanID, when non-zero,
// is stamped on the wire requests as the parent for server spans.
func (tx *Tx) remoteReadInner(id store.ObjectID, spanID uint64) (store.Value, error) {
	rt := tx.rt
	req := tx.request(wire.KindRead, tx.id, spanID)
	req.Read = &wire.ReadRequest{Object: id, Validate: tx.validationListFor(rt.groupFor(id))}
	req.Read.StatsFor = rt.statsQuery()

	for busyTry := 0; ; busyTry++ {
		results, fullIdx, err := tx.quorumRead(req)
		if err != nil {
			return nil, err
		}
		t := rt.tallyRead(results, fullIdx)
		if len(t.invalid) > 0 {
			if ae := tx.abortFor(t.invalid, "incremental validation on read of "+string(id)); ae != nil {
				return nil, ae
			}
		}

		// Under the lean strategy the newest version may have been reported
		// by a versions-only member: fetch the value from it.
		if t.best != nil && fullIdx >= 0 && t.best.Value == nil && t.best.Version > 0 {
			follow, err := tx.followUpRead(id, t.bestNode)
			if err != nil {
				// The member vanished or is busy mid-commit; retry the
				// whole quorum read after a pause.
				rt.metrics.BusyBackoffs.Add(1)
				if busyTry >= rt.cfg.ReadBusyRetries {
					return nil, tx.busyAbort(id, t.conflictTx, "lean follow-up failed past retry budget")
				}
				if err := tx.takeRetry("lean follow-up re-read"); err != nil {
					return nil, err
				}
				if err := rt.backoff(tx.ctx, busyTry); err != nil {
					return nil, err
				}
				continue
			}
			if len(follow.Invalid) > 0 {
				if ae := tx.abortFor(follow.Invalid, "incremental validation on read of "+string(id)); ae != nil {
					return nil, ae
				}
			}
			t.best = follow
		}

		if t.best == nil && t.busy {
			// The object is exclusively protected everywhere we asked: a
			// commit that writes it is in flight. Back off and retry the
			// read in place a few times before aborting this context.
			if busyTry < rt.cfg.ReadBusyRetries {
				rt.metrics.BusyBackoffs.Add(1)
				rt.cfg.Tracer.Record(trace.KindBusy, tx.id, string(id))
				if err := tx.takeRetry("busy re-read"); err != nil {
					return nil, err
				}
				if err := rt.backoff(tx.ctx, busyTry); err != nil {
					return nil, err
				}
				continue
			}
			return nil, tx.busyAbort(id, t.conflictTx, "object busy past retry budget")
		}

		e := rt.settle(results, t.best)
		tx.recordRead(id, e)
		return e.val, nil
	}
}

// readTally is what the members of a read quorum said about one object.
type readTally struct {
	invalid    []store.ObjectID   // union of the incremental-validation reports
	best       *wire.ReadResponse // highest version reported (nil: absent wherever it was looked for)
	bestNode   quorum.NodeID      // the member that reported best
	answers    int                // members that reported a version or the object's absence
	busy       bool               // a member holds the object exclusively protected
	conflictTx string             // the first such member's conflict witness
}

// tallyRead folds one object's replies — those of a plain read, or the
// object's sub-replies of a batched round — into a tally, and hands any
// piggybacked contention levels to the stats sink. prefer is the index of the
// member asked for the full value under the lean strategy (-1: all were): on
// equal versions its reply wins, being the one that carries the value.
func (rt *Runtime) tallyRead(replies []callResult, prefer int) readTally {
	var t readTally
	for i, r := range replies {
		read := r.resp.Read
		if read != nil {
			for _, inv := range read.Invalid { // most reads report none, the rest a handful
				if !slices.Contains(t.invalid, inv) {
					t.invalid = append(t.invalid, inv)
				}
			}
			if read.Stats != nil && rt.cfg.StatsSink != nil {
				rt.cfg.StatsSink(read.Stats)
			}
		}
		switch r.resp.Status {
		case wire.StatusOK:
			if read == nil {
				break // a batch's sub-reply without its payload is no answer
			}
			t.answers++
			if t.best == nil || read.Version > t.best.Version ||
				(read.Version == t.best.Version && i == prefer) {
				t.best = read
				t.bestNode = r.node
			}
		case wire.StatusNotFound:
			t.answers++ // absence is an answer: version 0
		case wire.StatusBusy:
			t.busy = true
			if t.conflictTx == "" {
				t.conflictTx = r.resp.ConflictTx
			}
		}
	}
	return t
}

// settle turns the winning reply into the object's first-access entry.
// Members that answered with an older version (or no object at all) are
// behind the quorum maximum; the entry names them for repairReads.
func (rt *Runtime) settle(replies []callResult, best *wire.ReadResponse) readEntry {
	if best == nil {
		return readEntry{}
	}
	e := readEntry{val: best.Value, ver: best.Version}
	if !rt.cfg.NoRepair && e.ver > 0 {
		e.stale = staleMembers(replies, e.ver)
	}
	return e
}

// quorumRead selects a read quorum and fans the request out. If a member
// died mid-call the level majority we picked is no longer intact and the
// versions we saw may miss the latest commit, so the read fails over (see
// failover) to a freshly selected quorum. The returned index marks the member
// asked for the full value under the lean strategy (-1: every member was
// asked for the value).
func (tx *Tx) quorumRead(req *wire.Request) ([]callResult, int, error) {
	rt := tx.rt
	g := rt.groupFor(req.Read.Object)
	fo := rt.failover(tx.ctx, tx, tx.seed, wire.KindRead, "read quorum")
	for fo.next() {
		q, err := fo.readQuorum(g)
		if err != nil {
			return nil, -1, err
		}
		rt.metrics.RemoteReads.Add(1)
		rt.cfg.Tracer.Record(trace.KindRead, tx.id, string(req.Read.Object))

		fullIdx := -1
		var results []callResult
		lean := rt.cfg.ReadStrategy == ReadLean
		if len(q) > 1 && (lean || len(req.Read.StatsFor) > 0) {
			// The first member gets the request as it is. The others get a
			// copy without the piggybacked stats query — one member's answer
			// is enough; don't pay for the ID list and the reply map on every
			// link — and, under the lean strategy, without the value.
			rest := req.Clone()
			rest.Read.StatsFor = nil
			if lean {
				fullIdx = 0
				rest.Read.VersionOnly = true
			}
			results = rt.fanoutLegs(tx.ctx, q, []leg{{req, 1}, {rest, len(q)}})
		} else if d := rt.hedgeDelay(); d > 0 {
			// Only the plain full-value read hedges: the variants above send
			// per-member requests whose roles (full value, stats carrier) a
			// late extra replica can't assume.
			results = rt.fanoutHedged(tx.ctx, g, q, req, fo.seed+fo.attempt, fo.excl, d)
		} else {
			results = rt.fanout(tx.ctx, q, req)
		}
		if !fo.failed(results) {
			return results, fullIdx, nil
		}
	}
	return nil, -1, fo.err()
}

// followUpRead fetches the full value of an object from a specific member
// that reported the newest version under the lean strategy.
func (tx *Tx) followUpRead(id store.ObjectID, node quorum.NodeID) (*wire.ReadResponse, error) {
	rt := tx.rt
	req := tx.request(wire.KindRead, tx.id, tx.span)
	req.Read = &wire.ReadRequest{Object: id, Validate: tx.validationListFor(rt.groupFor(id))}
	cctx, cancel := context.WithTimeout(tx.ctx, rt.cfg.RequestTimeout)
	defer cancel()
	resp, err := rt.cfg.Client.Call(cctx, node, req)
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK || resp.Read == nil {
		return nil, fmt.Errorf("dtm: follow-up read: %s", resp.Status)
	}
	return resp.Read, nil
}

// Sub runs fn as a closed-nested sub-transaction. Conflicts on objects first
// accessed inside fn abort and re-run only fn (partial rollback); conflicts
// on the parent's history propagate as parent-level aborts. On success the
// child's read/write sets merge into the parent (closed-nesting commit);
// nothing becomes globally visible until the parent commits.
func (tx *Tx) Sub(fn func(*Tx) error) error {
	if tx.parent != nil {
		return ErrNestingDepth
	}
	tx.subSeq++
	block := tx.subSeq
	if tx.traceID == "" {
		return tx.runSub(fn, block, 0)
	}
	// Traced: one "block-K" span per Sub call with a nested "try-J" span per
	// execution, so a partial rollback shows up as extra tries under the same
	// block while the block's own duration captures the total retry cost.
	span := trace.Span{
		Trace:  tx.traceID,
		ID:     trace.NextSpanID(),
		Parent: tx.span,
		Name:   fmt.Sprintf("block-%d", block),
		Site:   tx.rt.site,
		Start:  time.Now(),
	}
	err := tx.runSub(fn, block, span.ID)
	span.End = time.Now()
	if err != nil {
		span.Detail = err.Error()
	} else {
		span.Detail = "merged"
	}
	tx.rt.cfg.Tracer.RecordSpan(span)
	return err
}

// runSub is Sub's partial-rollback retry loop. blockID is the enclosing
// block span (0 when untraced).
func (tx *Tx) runSub(fn func(*Tx) error, block int, blockID uint64) error {
	rt := tx.rt
	for attempt := 0; attempt < rt.cfg.MaxSubAttempts; attempt++ {
		var trySpan trace.Span
		if blockID != 0 {
			trySpan = trace.Span{
				Trace:  tx.traceID,
				ID:     trace.NextSpanID(),
				Parent: blockID,
				Name:   fmt.Sprintf("try-%d", attempt),
				Site:   rt.site,
				Start:  time.Now(),
			}
		}
		child := tx.subContext(block, trySpan.ID)
		err := fn(child)
		if blockID != 0 {
			trySpan.End = time.Now()
			if err != nil {
				trySpan.Detail = err.Error()
			} else {
				trySpan.Detail = "merged"
			}
			rt.cfg.Tracer.RecordSpan(trySpan)
		}
		if err == nil {
			tx.merge(child)
			return nil
		}
		ae, ok := AsAbort(err)
		if !ok || ae.Level != AbortSub {
			return err
		}
		rt.metrics.SubAborts.Add(1)
		rt.noteShards(child, shardSubAbort, ae.Cause)
		rt.recordAbort(tx, ae, true, attempt)
		rt.cfg.Tracer.Record(trace.KindPartialAbort, tx.id, abortDetail(ae))
		if err := rt.backoff(tx.ctx, attempt); err != nil {
			return err
		}
	}
	return &AbortError{Level: AbortParent, Reason: "sub-transaction retry budget exhausted"}
}

// subContext hands out the transaction's sub-transaction context, emptied,
// for one try of Block block. A Block body must not keep the context past its
// return: the next try, or the next Block, is handed the same one.
func (tx *Tx) subContext(block int, span uint64) *Tx {
	c := tx.child
	if c == nil {
		c = &Tx{
			rt:          tx.rt,
			ctx:         tx.ctx,
			id:          tx.id,
			seed:        tx.seed,
			incarnation: tx.incarnation,
			deadline:    tx.deadline,
			budget:      tx.budget,
			parent:      tx,
			traceID:     tx.traceID,
			reads:       make(map[store.ObjectID]readEntry),
			writes:      make(map[store.ObjectID]store.Value),
		}
		tx.child = c
	} else {
		clear(c.reads)
		clear(c.writes)
		c.readOrder = c.readOrder[:0]
	}
	c.block, c.span = block, span
	return c
}

// merge folds a committed child into the parent (closed-nesting commit).
func (tx *Tx) merge(child *Tx) {
	for _, id := range child.readOrder {
		if _, dup := tx.reads[id]; !dup {
			tx.reads[id] = child.reads[id]
			tx.readOrder = append(tx.readOrder, id)
		}
	}
	for id, v := range child.writes {
		tx.writes[id] = v
		tx.writeBlock[id] = child.block
	}
}

// commit finalizes a top-level transaction: two-phase commit against a write
// quorum of every quorum group it touched, or — for a read-only transaction —
// one validation round against read quorums and no 2PC. There is one part per
// touched group, each naming only what that group owns; an unsharded cluster
// is one part over the whole-cluster tree.
func (rt *Runtime) commit(ctx context.Context, tx *Tx) error {
	if len(tx.readOrder) == 0 {
		return nil // every write follows a first-access read: nothing was touched
	}
	reads := make([]store.ReadDesc, 0, len(tx.readOrder))
	stale := false // some read met a member behind the quorum maximum
	for _, id := range tx.readOrder {
		e := tx.reads[id]
		reads = append(reads, store.ReadDesc{ID: id, Version: e.ver})
		stale = stale || e.stale != nil
	}
	var writes []store.WriteDesc
	var release []store.ObjectID // protections are taken on the whole read set
	if len(tx.writes) > 0 {
		release = tx.readOrder
		writes = make([]store.WriteDesc, 0, len(tx.writes))
		for _, id := range tx.readOrder { // deterministic order
			if v, ok := tx.writes[id]; ok {
				writes = append(writes, store.WriteDesc{
					ID:         id,
					Value:      v,
					NewVersion: tx.reads[id].ver + 1,
					Block:      tx.writeBlock[id],
				})
			}
		}
	}
	parts := []commitPart{{reads: reads, writes: writes, release: release}}
	if rt.cfg.Shards != nil {
		parts = partitionCommit(rt.cfg.Shards, reads, writes, release)
	}
	var err error
	if len(writes) == 0 {
		err = rt.commitReadOnly(ctx, tx, parts)
	} else {
		err = rt.commitParts(ctx, tx, parts)
		switch _, aborted := AsAbort(err); {
		case len(parts) > 1 && err == nil:
			rt.metrics.CrossShardCommits.Add(1)
		case len(parts) > 1 && aborted:
			rt.metrics.CrossShardAborts.Add(1)
		case rt.cfg.Shards != nil && err == nil:
			rt.metrics.SingleShardCommits.Add(1)
		}
	}
	if err == nil && stale {
		rt.repairReads(tx)
	}
	return err
}

// commitParts is the 2PC. Each part's prepare names only its own group's
// reads and writes and goes to a write quorum of that group, but the durable
// Quorum membership on every prepare is the UNION of all parts' write-quorum
// members: after a coordinator crash, cooperative termination then
// interrogates cross-group participants too, so a commit delivered to any one
// group proves the outcome to the others — no group can TTL-abort a
// transaction a sibling group already committed. The transaction commits iff
// every member of every part votes yes; decisions then go out per part,
// carrying only that part's writes and release set. A single part — an
// unsharded cluster, or one shard — is the same protocol at its smallest:
// the selected quorum is the recorded membership, one request serves every
// member, and the decision is delivered on the caller's goroutine. The
// prepares of a round leave all at once or, while this runtime's rounds are
// being refused, each part's root first (prepareorder.go); the votes, the
// records and the decision are the same either way.
func (rt *Runtime) commitParts(ctx context.Context, tx *Tx, parts []commitPart) error {
	fo := rt.failover(ctx, tx, tx.seed, wire.KindPrepare, "write quorum")
	for fo.next() {
		// One write quorum per part; any group short of a quorum fails the
		// whole commit (the exclude set spans the groups — each group's
		// selector ignores exclusions naming foreign nodes).
		var nodes []quorum.NodeID
		legs := make([]leg, len(parts))
		for i := range parts {
			wq, err := fo.writeQuorum(parts[i].group)
			if err != nil {
				return err
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
		txid := tx.id
		if fo.attempt > 0 {
			txid = fmt.Sprintf("%s-q%d", tx.id, fo.attempt)
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
		rt.notePrepareRound(tx, len(no.invalid)+len(no.busy) > 0)
		if yes == len(nodes) {
			rt.decideParts(ctx, tx, txid, true, parts, results)
			return nil
		}
		// Some participant said no or vanished: abort-release wherever a yes
		// vote left protections behind.
		rt.metrics.PrepareFails.Add(1)
		rt.decideParts(ctx, tx, txid, false, parts, results)
		if ae := no.abort("commit", failed); ae != nil {
			return ae
		}
	}
	return fo.err()
}

// commitReadOnly validates a transaction that wrote nothing: each part's
// reads against a read quorum of its group, in one round. The prepares carry
// no Quorum, which is what tells a server this is a validation-only vote —
// nothing is protected, so there is no decision to deliver.
func (rt *Runtime) commitReadOnly(ctx context.Context, tx *Tx, parts []commitPart) error {
	fo := rt.failover(ctx, tx, tx.seed, wire.KindPrepare, "read-only validation")
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

// tallyVotes counts a prepare round's yes votes and collects its refusals;
// members that failed the round (failover.failed) or were not asked are
// neither.
func tallyVotes(results []callResult) (yes int, no refusal) {
	for _, r := range results {
		switch {
		case r.resp == nil:
		case r.resp.Prepare.Vote:
			yes++
		default:
			no.invalid = append(no.invalid, r.resp.Prepare.Invalid...)
			no.busy = append(no.busy, r.resp.Prepare.Busy...)
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
	rt.cfg.Tracer.Record(trace.KindFailover, tx.id, "decision delivery abandoned")
}

// abortDetail renders an abort's trace detail: the reason plus, when known,
// the implicated key and conflicting transaction. Only abort paths pay for
// the string building.
func abortDetail(ae *AbortError) string {
	d := ae.Reason
	if ae.Key != "" {
		d += " key=" + string(ae.Key)
	}
	if ae.ConflictTx != "" {
		d += " conflict=" + ae.ConflictTx
	}
	return d
}
