package dtm

import (
	"context"
	"errors"
	"fmt"
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
// buffer: the value and version a read quorum reported for the object.
type readEntry struct {
	val store.Value
	ver uint64
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
// other second try — against the attempt's shared budget. A false return
// means the budget is gone; callers fail the transaction with errBudget
// instead of retrying further.
func (tx *Tx) takeRetry() bool {
	if tx.budget.Take() {
		return true
	}
	tx.rt.metrics.BudgetExhausted.Add(1)
	return false
}

func errBudget(op string) error {
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

// remoteReadInner is the quorum read protocol body. spanID, when non-zero,
// is stamped on the wire requests as the parent for server spans.
func (tx *Tx) remoteReadInner(id store.ObjectID, spanID uint64) (store.Value, error) {
	rt := tx.rt
	validate := tx.validationListFor(rt.groupFor(id))

	req := &wire.Request{
		Kind:     wire.KindRead,
		TxID:     tx.id,
		Deadline: tx.deadline,
		Read:     &wire.ReadRequest{Object: id, Validate: validate},
	}
	if spanID != 0 {
		req.TraceID = tx.traceID
		req.SpanID = spanID
	}
	req.Read.StatsFor = rt.statsQuery()

	for busyTry := 0; ; busyTry++ {
		results, fullIdx, err := tx.quorumRead(req)
		if err != nil {
			return nil, err
		}

		// Union the incremental-validation reports from all replicas.
		var invalid []store.ObjectID
		var seen map[store.ObjectID]bool // made by the first invalidation: most reads report none
		busy := false
		conflictTx := "" // conflict witness piggybacked on Busy replies
		var best *wire.ReadResponse
		bestNode := quorum.NodeID(-1)
		okCount := 0
		for i, r := range results {
			if r.resp.Read != nil {
				for _, inv := range r.resp.Read.Invalid {
					if !seen[inv] {
						if seen == nil {
							seen = make(map[store.ObjectID]bool)
						}
						seen[inv] = true
						invalid = append(invalid, inv)
					}
				}
				if r.resp.Read.Stats != nil && rt.cfg.StatsSink != nil {
					rt.cfg.StatsSink(r.resp.Read.Stats)
				}
			}
			switch r.resp.Status {
			case wire.StatusOK:
				okCount++
				if best == nil || r.resp.Read.Version > best.Version ||
					(r.resp.Read.Version == best.Version && i == fullIdx) {
					best = r.resp.Read
					bestNode = r.node
				}
			case wire.StatusNotFound:
				okCount++ // absence is an answer: version 0
			case wire.StatusBusy:
				busy = true
				if conflictTx == "" {
					conflictTx = r.resp.ConflictTx
				}
			}
		}

		if len(invalid) > 0 {
			if ae := tx.abortFor(invalid, "incremental validation on read of "+string(id)); ae != nil {
				return nil, ae
			}
		}

		// Under the lean strategy the newest version may have been reported
		// by a versions-only member: fetch the value from it.
		if best != nil && fullIdx >= 0 && best.Value == nil && best.Version > 0 {
			follow, err := tx.followUpRead(id, bestNode)
			if err != nil {
				// The member vanished or is busy mid-commit; retry the
				// whole quorum read after a pause.
				rt.metrics.BusyBackoffs.Add(1)
				if busyTry >= rt.cfg.ReadBusyRetries {
					return nil, tx.busyAbort(id, conflictTx, "lean follow-up failed past retry budget")
				}
				if !tx.takeRetry() {
					return nil, errBudget("lean follow-up re-read")
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
			best = follow
		}

		if best == nil && busy {
			// The object is exclusively protected everywhere we asked: a
			// commit that writes it is in flight. Back off and retry the
			// read in place a few times before aborting this context.
			if busyTry < rt.cfg.ReadBusyRetries {
				rt.metrics.BusyBackoffs.Add(1)
				rt.cfg.Tracer.Record(trace.KindBusy, tx.id, string(id))
				if !tx.takeRetry() {
					return nil, errBudget("busy re-read")
				}
				if err := rt.backoff(tx.ctx, busyTry); err != nil {
					return nil, err
				}
				continue
			}
			return nil, tx.busyAbort(id, conflictTx, "object busy past retry budget")
		}
		if okCount == 0 {
			return nil, ErrQuorumUnreachable
		}

		var val store.Value
		var ver uint64
		if best != nil {
			val = best.Value
			ver = best.Version
		}
		// Members that answered with an older version (or no object at all)
		// are behind the quorum maximum: push the fresh state back to them
		// asynchronously so revived replicas converge.
		rt.maybeRepair(id, results, val, ver)
		tx.recordRead(id, readEntry{val: val, ver: ver})
		return val, nil
	}
}

// quorumRead selects a read quorum and fans the request out. If a member
// died mid-call the level majority we picked is no longer intact and the
// versions we saw may miss the latest commit, so the read is retried against
// a freshly selected quorum that excludes the members that just errored
// (and, through the failure detector, any node under suspicion). The
// returned index marks the member asked for the full value under the lean
// strategy (-1: every member was asked for the value).
func (tx *Tx) quorumRead(req *wire.Request) ([]callResult, int, error) {
	rt := tx.rt
	var lastErr error
	var excl quorum.ExcludeSet
	g := rt.groupFor(req.Read.Object)
	for attempt := 0; attempt < rt.cfg.QuorumAttempts; attempt++ {
		if attempt > 0 {
			if !tx.takeRetry() {
				return nil, -1, errBudget("read quorum failover")
			}
			rt.metrics.Failovers.Add(1)
			rt.cfg.Tracer.Record(trace.KindFailover, tx.id, "read quorum re-selection")
		}
		q, err := rt.selectReadQuorumIn(g, tx.seed+attempt, excl)
		if err != nil {
			return nil, -1, errors.Join(ErrQuorumUnreachable, err)
		}
		rt.metrics.RemoteReads.Add(1)
		rt.cfg.Tracer.Record(trace.KindRead, tx.id, string(req.Read.Object))

		fullIdx := -1
		var results []callResult
		switch {
		case rt.cfg.ReadStrategy == ReadLean && len(q) > 1:
			fullIdx = 0
			versionOnly := req.Clone()
			versionOnly.Read.VersionOnly = true
			versionOnly.Read.StatsFor = nil // one stats copy is enough
			results = rt.fanoutEach(tx.ctx, q, func(i int) *wire.Request {
				if i == fullIdx {
					return req
				}
				return versionOnly
			})
		case len(req.Read.StatsFor) > 0 && len(q) > 1:
			// The piggybacked stats query needs only one member's answer;
			// don't pay for the ID list and the reply map on every link.
			plain := req.Clone()
			plain.Read.StatsFor = nil
			results = rt.fanoutEach(tx.ctx, q, func(i int) *wire.Request {
				if i == 0 {
					return req
				}
				return plain
			})
		default:
			// Only the plain full-value read hedges: the lean and
			// piggybacked-stats variants send per-member requests whose roles
			// (full value, stats carrier) a late extra replica can't assume.
			if d := rt.hedgeDelay(); d > 0 {
				results = rt.fanoutHedged(tx.ctx, g, q, req, tx.seed+attempt, excl, d)
			} else {
				results = rt.fanout(tx.ctx, q, req)
			}
		}

		allReachable := true
		for _, r := range results {
			if r.err != nil {
				allReachable = false
				lastErr = r.err
			}
		}
		if allReachable {
			return results, fullIdx, nil
		}
		excl, _ = recordFailed(excl, results)
		if err := tx.ctx.Err(); err != nil {
			return nil, -1, err
		}
	}
	return nil, -1, errors.Join(ErrQuorumUnreachable, lastErr)
}

// followUpRead fetches the full value of an object from a specific member
// that reported the newest version under the lean strategy.
func (tx *Tx) followUpRead(id store.ObjectID, node quorum.NodeID) (*wire.ReadResponse, error) {
	rt := tx.rt
	req := &wire.Request{
		Kind:     wire.KindRead,
		TxID:     tx.id,
		Deadline: tx.deadline,
		Read:     &wire.ReadRequest{Object: id, Validate: tx.validationListFor(rt.groupFor(id))},
	}
	if tx.traceID != "" {
		req.TraceID = tx.traceID
		req.SpanID = tx.span
	}
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

// commit finalizes a top-level transaction with two-phase commit against a
// write quorum (read-only transactions validate against a read quorum and
// skip 2PC). Under a shard map the touched quorum groups decide the path:
// one group runs the ordinary single-quorum 2PC against that group alone,
// several groups run the cross-shard 2PC (commitCrossShard).
func (rt *Runtime) commit(ctx context.Context, tx *Tx) error {
	reads := make([]store.ReadDesc, 0, len(tx.readOrder))
	for _, id := range tx.readOrder {
		reads = append(reads, store.ReadDesc{ID: id, Version: tx.reads[id].ver})
	}

	if len(tx.writes) == 0 {
		return rt.commitReadOnly(ctx, tx, reads)
	}

	writes := make([]store.WriteDesc, 0, len(tx.writes))
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
	release := make([]store.ObjectID, 0, len(reads))
	for _, r := range reads {
		release = append(release, r.ID)
	}

	if rt.cfg.Shards == nil {
		return rt.commitIn(ctx, tx, nil, reads, writes, release)
	}
	parts := partitionCommit(rt.cfg.Shards, reads, writes, release)
	if len(parts) == 1 {
		err := rt.commitIn(ctx, tx, parts[0].group, reads, writes, release)
		if err == nil {
			rt.metrics.SingleShardCommits.Add(1)
		}
		return err
	}
	return rt.commitCrossShard(ctx, tx, parts)
}

// commitIn is the single-quorum 2PC: prepare and decide against one write
// quorum picked from group g (the whole-cluster tree when g is nil).
func (rt *Runtime) commitIn(ctx context.Context, tx *Tx, g *shard.Group, reads []store.ReadDesc, writes []store.WriteDesc, release []store.ObjectID) error {
	var lastErr error
	var excl quorum.ExcludeSet
	for attempt := 0; attempt < rt.cfg.QuorumAttempts; attempt++ {
		if attempt > 0 {
			if !tx.takeRetry() {
				return errBudget("write quorum failover")
			}
			rt.metrics.Failovers.Add(1)
			rt.cfg.Tracer.Record(trace.KindFailover, tx.id, "write quorum re-selection")
		}
		wq, err := rt.selectWriteQuorumIn(g, tx.seed+attempt, excl)
		if err != nil {
			return errors.Join(ErrQuorumUnreachable, err)
		}
		// Each prepare/decide round is its own 2PC incarnation with a
		// unique transaction ID: participants durably promise or terminate
		// per ID, so a round the coordinator abort-released must not share
		// an ID with the failover round that follows it.
		txid := tx.id
		if attempt > 0 {
			txid = fmt.Sprintf("%s-q%d", tx.id, attempt)
		}
		// A fresh request per attempt (never mutated after fanout): a
		// timed-out call from the previous round may still be serializing
		// the old one on an async transport. Each participant durably
		// records the full quorum membership with its yes vote, so after a
		// coordinator crash it knows which peers to ask for the decision
		// (cooperative termination).
		prepare := &wire.Request{
			Kind:     wire.KindPrepare,
			TxID:     txid,
			Deadline: tx.deadline,
			Prepare:  &wire.PrepareRequest{Reads: reads, Writes: writes, Quorum: wq},
		}
		if tx.traceID != "" {
			prepare.TraceID = tx.traceID
			prepare.SpanID = tx.span
		}
		rt.metrics.Prepares.Add(1)
		prepStart := time.Now()
		results := rt.fanout(ctx, wq, prepare)
		rt.stages.Prepare.Record(time.Since(prepStart))

		var invalid []store.ObjectID
		var busyIDs []store.ObjectID
		conflictTx := ""
		yes := 0
		unreachable := false
		var preparedOn []quorum.NodeID
		for _, r := range results {
			if r.err != nil {
				unreachable = true
				lastErr = r.err
				continue
			}
			if r.resp.Status != wire.StatusOK || r.resp.Prepare == nil {
				unreachable = true
				continue
			}
			if r.resp.Prepare.Vote {
				yes++
				preparedOn = append(preparedOn, r.node)
				continue
			}
			invalid = append(invalid, r.resp.Prepare.Invalid...)
			busyIDs = append(busyIDs, r.resp.Prepare.Busy...)
			if conflictTx == "" {
				conflictTx = r.resp.ConflictTx
			}
		}

		if yes == len(wq) {
			rt.decide(ctx, wq, tx, txid, true, writes, release)
			return nil
		}

		// Some participant said no or vanished: abort-release everywhere we
		// might have left protections.
		rt.metrics.PrepareFails.Add(1)
		rt.decide(ctx, preparedOn, tx, txid, false, nil, release)

		if len(invalid) > 0 || len(busyIDs) > 0 {
			busyOnly := len(busyIDs) > 0 && len(invalid) == 0
			ae := &AbortError{
				Level:   AbortParent,
				Invalid: append(invalid, busyIDs...),
				Busy:    busyOnly,
				Reason:  "commit validation failed",
				Cause:   forensics.CauseReadValidation,
				Key:     firstID(invalid, busyIDs),
			}
			if busyOnly {
				ae.Cause = forensics.CauseLockConflict
				ae.ConflictTx = conflictTx
			}
			return ae
		}
		if unreachable {
			// Exclude the members that errored so the re-selected quorum
			// cannot contain them, then retry against the alive view —
			// unless the round failed because the caller gave up.
			excl, _ = recordFailed(excl, results)
			if err := ctx.Err(); err != nil {
				return err
			}
			continue
		}
		return &AbortError{Level: AbortParent, Reason: "prepare rejected", Cause: forensics.CauseCommitRound}
	}
	return errors.Join(ErrQuorumUnreachable, lastErr)
}

func (rt *Runtime) commitReadOnly(ctx context.Context, tx *Tx, reads []store.ReadDesc) error {
	if len(reads) == 0 {
		return nil
	}
	// One validation part per touched quorum group: each group's read quorum
	// validates only the reads it owns. Unsharded runs are one part over the
	// whole-cluster tree.
	parts := []commitPart{{reads: reads}}
	if rt.cfg.Shards != nil {
		parts = partitionCommit(rt.cfg.Shards, reads, nil, nil)
	}
	var lastErr error
	var excl quorum.ExcludeSet
	for attempt := 0; attempt < rt.cfg.QuorumAttempts; attempt++ {
		if attempt > 0 {
			if !tx.takeRetry() {
				return errBudget("read-only validation failover")
			}
			rt.metrics.Failovers.Add(1)
			rt.cfg.Tracer.Record(trace.KindFailover, tx.id, "read quorum re-selection")
		}
		var nodes []quorum.NodeID
		var reqs []*wire.Request
		for _, p := range parts {
			q, err := rt.selectReadQuorumIn(p.group, tx.seed+attempt, excl)
			if err != nil {
				return errors.Join(ErrQuorumUnreachable, err)
			}
			req := &wire.Request{
				Kind:     wire.KindPrepare,
				TxID:     tx.id,
				Deadline: tx.deadline,
				Prepare:  &wire.PrepareRequest{Reads: p.reads},
			}
			if tx.traceID != "" {
				req.TraceID = tx.traceID
				req.SpanID = tx.span
			}
			for _, n := range q {
				nodes = append(nodes, n)
				reqs = append(reqs, req)
			}
		}
		rt.metrics.ReadOnlyFasts.Add(1)
		prepStart := time.Now()
		results := rt.fanoutEach(ctx, nodes, func(i int) *wire.Request { return reqs[i] })
		rt.stages.Prepare.Record(time.Since(prepStart))
		var invalid []store.ObjectID
		ok := true
		for _, r := range results {
			if r.err != nil || r.resp.Status != wire.StatusOK || r.resp.Prepare == nil {
				ok = false
				lastErr = r.err
				continue
			}
			if !r.resp.Prepare.Vote {
				invalid = append(invalid, r.resp.Prepare.Invalid...)
			}
		}
		if len(invalid) > 0 {
			return &AbortError{Level: AbortParent, Invalid: invalid, Reason: "read-only validation failed",
				Cause: forensics.CauseReadValidation, Key: invalid[0]}
		}
		if ok {
			return nil
		}
		excl, _ = recordFailed(excl, results)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return errors.Join(ErrQuorumUnreachable, lastErr)
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
	req := &wire.Request{
		Kind: wire.KindDecision,
		TxID: txid,
		Decision: &wire.DecisionRequest{
			Commit:  commit,
			Writes:  writes,
			Release: release,
		},
	}
	if tx.traceID != "" {
		req.TraceID = tx.traceID
		req.SpanID = tx.span
	}
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

// firstID picks the first implicated object out of the invalid/busy reports,
// the single-key witness an abort event carries.
func firstID(invalid, busy []store.ObjectID) store.ObjectID {
	if len(invalid) > 0 {
		return invalid[0]
	}
	if len(busy) > 0 {
		return busy[0]
	}
	return ""
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
