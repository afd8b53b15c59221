// In-doubt transaction tracking and the cooperative termination protocol.
//
// A participant that votes yes in 2PC hands control of the transaction's
// outcome to the coordinator. Because the coordinator here is a client
// process with no durable state, it can die between collecting the votes
// and delivering the decision — leaving the participant holding protections
// it must not release (the decision may be commit) and must not keep
// forever (the decision may never arrive). This file makes that window
// safe:
//
//   - the vote is durable: a prepare record (write set, release set, quorum
//     membership) is WAL-logged before the yes vote is sent, and a decision
//     record before the outcome is applied, so crash recovery rebuilds the
//     in-doubt table instead of silently forgetting a promise;
//   - the decision is discoverable: a participant in-doubt past the resolve
//     deadline asks the other quorum members recorded in its prepare
//     (KindTxStatus). Any peer that saw the decision answers
//     authoritatively; a peer that never voted yes promises abort (it
//     tombstones the transaction so a late prepare can no longer make the
//     vote unanimous) and answers aborted; only a complete round in which
//     every peer is equally in-doubt falls back to a TTL abort after
//     TTLAbortAfter — a deadline that must exceed the coordinator's decide
//     budget, because it is the coordinator's silence that makes the
//     unanimous-in-doubt round proof that no commit was ever delivered.
package server

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wal"
	"qracn/internal/wire"
)

// decidedCap bounds the decided-outcome memory: the node retains at least
// the most recent decidedCap outcomes (two rotating generations, so at most
// 2×decidedCap). Once rotation has ever dropped outcomes, absence from the
// maps stops being proof of "never decided here" — from then on a status
// query about an unrecorded transaction is answered Unknown (no abort
// promise), so a peer that stayed in-doubt through the whole retention
// window keeps waiting instead of being promised an abort that could
// contradict an evicted commit.
const decidedCap = 1 << 16

// inDoubtTx is one yes vote whose outcome this node has not yet learned.
type inDoubtTx struct {
	rec      wal.Record // the prepare record (Type == wal.RecordPrepare)
	prepared time.Time
	// overdue is set the first time the resolver examines the entry past
	// the resolve deadline; a coordinator decision arriving after that
	// counts as CoordinatorDecided in the resolution-outcome counters.
	overdue bool
}

// resolutionCounters are the termination-protocol outcome counters
// (atomics; see ResolutionStats for meanings).
type resolutionCounters struct {
	recoveredInDoubt   atomic.Uint64
	coordinatorDecided atomic.Uint64
	peerCommits        atomic.Uint64
	peerAborts         atomic.Uint64
	ttlAborts          atomic.Uint64
	statusQueries      atomic.Uint64
	resolveForwards    atomic.Uint64
}

// ResolutionStats is a point-in-time copy of the node's termination-protocol
// counters. InDoubt is a gauge (current table size); the rest are
// monotonic counters. Deployment layers sum it across nodes with Add.
type ResolutionStats struct {
	// InDoubt is the number of currently in-doubt transactions (summed
	// across nodes it is the cluster-wide total, since each participant
	// tracks its own prepares).
	InDoubt uint64
	// RecoveredInDoubt counts in-doubt prepares rebuilt from the WAL during
	// crash recovery.
	RecoveredInDoubt uint64
	// CoordinatorDecided counts in-doubt transactions resolved by the
	// coordinator's own (possibly retried) decision arriving.
	CoordinatorDecided uint64
	// PeerCommits counts in-doubt transactions committed on the authority
	// of a quorum peer that had seen the commit decision.
	PeerCommits uint64
	// PeerAborts counts in-doubt transactions aborted on the authority of a
	// peer: either the peer saw the abort decision or it never voted yes
	// (so a commit decision is impossible).
	PeerAborts uint64
	// TTLAborts counts last-resort aborts after every reachable peer was
	// also in-doubt for the whole resolve window.
	TTLAborts uint64
	// StatusQueries counts KindTxStatus queries this node sent while
	// resolving its own in-doubt transactions.
	StatusQueries uint64
	// ResolveForwards counts decisions forwarded (KindDecision, Forwarded)
	// to still in-doubt peers after a resolution.
	ResolveForwards uint64
}

// Add accumulates another node's resolution counters.
func (r *ResolutionStats) Add(o ResolutionStats) {
	r.InDoubt += o.InDoubt
	r.RecoveredInDoubt += o.RecoveredInDoubt
	r.CoordinatorDecided += o.CoordinatorDecided
	r.PeerCommits += o.PeerCommits
	r.PeerAborts += o.PeerAborts
	r.TTLAborts += o.TTLAborts
	r.StatusQueries += o.StatusQueries
	r.ResolveForwards += o.ResolveForwards
}

// ResolutionStats copies the current termination-protocol counters.
func (n *Node) ResolutionStats() ResolutionStats {
	n.idMu.Lock()
	gauge := uint64(len(n.inDoubt))
	n.idMu.Unlock()
	return ResolutionStats{
		InDoubt:            gauge,
		RecoveredInDoubt:   n.resCtr.recoveredInDoubt.Load(),
		CoordinatorDecided: n.resCtr.coordinatorDecided.Load(),
		PeerCommits:        n.resCtr.peerCommits.Load(),
		PeerAborts:         n.resCtr.peerAborts.Load(),
		TTLAborts:          n.resCtr.ttlAborts.Load(),
		StatusQueries:      n.resCtr.statusQueries.Load(),
		ResolveForwards:    n.resCtr.resolveForwards.Load(),
	}
}

// InDoubt lists the transaction IDs currently in-doubt (sorted; for tests
// and the debug endpoint).
func (n *Node) InDoubt() []string {
	n.idMu.Lock()
	ids := make([]string, 0, len(n.inDoubt))
	for tx := range n.inDoubt {
		ids = append(ids, tx)
	}
	n.idMu.Unlock()
	sort.Strings(ids)
	return ids
}

// decidedGen is one generation of the decided-outcome memory. The map
// answers lookups. On a durable node the log lists the same outcomes in the
// order their records were logged, append-only, so a checkpoint's cut takes
// a generation by its slice header instead of copying a map of up to
// decidedCap entries under the commit lock (Node.cut).
type decidedGen struct {
	outcome map[string]bool
	log     []decidedOutcome
}

type decidedOutcome struct {
	txID   string
	commit bool
}

// decidedLocked looks up a transaction's known outcome. Caller holds idMu.
func (n *Node) decidedLocked(txID string) (commit, known bool) {
	if c, ok := n.decidedCur.outcome[txID]; ok {
		return c, true
	}
	if c, ok := n.decidedPrev.outcome[txID]; ok {
		return c, true
	}
	return false, false
}

// setDecidedLocked records a transaction's outcome whose record is logged
// (or, for a presumed abort, is staged within the same commitMu hold).
// Caller holds idMu.
func (n *Node) setDecidedLocked(txID string, commit bool) {
	if key, fresh := n.rememberLocked(txID, commit); fresh {
		n.logDecidedLocked(key, commit)
	}
}

// rememberLocked puts an outcome in the lookup maps only, rotating the
// bounded generations when the current one fills. It returns the key it
// retained and whether the outcome is new. Caller holds idMu.
func (n *Node) rememberLocked(txID string, commit bool) (string, bool) {
	if len(n.decidedCur.outcome) >= decidedCap {
		if len(n.decidedPrev.outcome) > 0 {
			// Outcomes are being dropped: unknown-tx status answers degrade
			// from an abort promise to Unknown for the rest of this process's
			// life (see decidedCap).
			n.evictedDecided = true
		}
		n.decidedPrev = n.decidedCur
		n.decidedCur = decidedGen{outcome: make(map[string]bool, decidedCap/4)}
	}
	if prev, ok := n.decidedCur.outcome[txID]; ok && prev == commit {
		return "", false
	}
	// The outcome memory holds 2×decidedCap entries for hours; txID may be a
	// view into the decision that carried it (wire.DecodeEnvelope), and one
	// retained ID must not retain one whole frame — so the map is only ever
	// assigned under a copy (assigning under an existing key adopts the
	// caller's copy of it too).
	key := strings.Clone(txID)
	n.decidedCur.outcome[key] = commit
	return key, true
}

// logDecidedLocked lists a remembered outcome in the current generation's
// log once its record is logged; volatile nodes keep no log. Caller holds
// idMu, and commitMu shared if the record was appended after the outcome
// was remembered, so that no cut falls between the record and this entry.
func (n *Node) logDecidedLocked(key string, commit bool) {
	if n.wal != nil {
		n.decidedCur.log = append(n.decidedCur.log, decidedOutcome{key, commit})
	}
}

// registerPrepare durably records a yes vote before it is sent: the entry
// goes into the in-doubt table, then the prepare record is appended and
// fsynced (a forced append: recovery cannot reconstruct a promise). It fails
// when the transaction already has a known outcome (a termination tombstone
// or a decision raced ahead of this prepare) or when the WAL refuses the
// record — in both cases the caller must roll its protections back and
// withhold the vote. An abort decision that lands while the fsync is in
// flight retires the entry and releases the protections itself; the vote
// that then goes out is harmless, its coordinator has already decided.
func (n *Node) registerPrepare(rec wal.Record, traceID string, serveID uint64) error {
	n.idMu.Lock()
	if _, known := n.decidedLocked(rec.TxID); known {
		n.idMu.Unlock()
		return errTxTerminated
	}
	n.inDoubt[rec.TxID] = &inDoubtTx{rec: rec, prepared: n.now()}
	n.idMu.Unlock()
	if n.wal != nil {
		// The shared commitMu orders this append against checkpoint cuts:
		// the record lands either below a cut, whose copy of the in-doubt
		// table already holds the entry above (the carry-over preserves it
		// across compaction), or at or above it, in a segment replay visits
		// — never in a segment about to be deleted behind its back.
		n.commitMu.RLock()
		err := n.appendForced(rec.TxID, traceID, serveID, rec)
		n.commitMu.RUnlock()
		if err != nil {
			n.idMu.Lock()
			delete(n.inDoubt, rec.TxID)
			n.idMu.Unlock()
			return err
		}
	}
	return nil
}

// appendForced appends records recovery cannot do without — a yes vote's
// prepare record, a commit decision and its writes — and returns once an
// fsync covers them. The wait is the durable path's share of the handler: it
// feeds stages.FsyncWait and, on a traced request, a wal-fsync span nested
// under the serve span. Callers hold n.commitMu shared and have a WAL.
func (n *Node) appendForced(txID, traceID string, serveID uint64, recs ...wal.Record) error {
	start := time.Now()
	err := n.wal.Append(recs...)
	wait := time.Since(start)
	n.stages.FsyncWait.Record(wait)
	if traceID != "" && n.tracer.Enabled() {
		// Both rings outlive the request these IDs are views into.
		n.tracer.Record(trace.KindWALFsync, strings.Clone(txID), wait.String())
		n.tracer.RecordSpan(trace.Span{
			Trace: strings.Clone(traceID), ID: trace.NextSpanID(), Parent: serveID,
			Name: "wal-fsync", Site: n.site,
			Start: start, End: start.Add(wait),
		})
	}
	return err
}

// errTxTerminated marks a prepare refused because the transaction already
// has a known outcome on this node.
var errTxTerminated = &terminatedError{}

type terminatedError struct{}

func (*terminatedError) Error() string { return "transaction already terminated" }

// decisionOutcome classifies how an in-doubt entry got resolved, for the
// outcome counters.
type decisionSource int

const (
	fromCoordinator decisionSource = iota
	fromPeer
	fromTTL
)

// applyDecision is the single path every 2PC outcome goes through —
// coordinator decisions, peer-forwarded resolutions (both KindDecision), the
// outcomes this node's own resolver learns, and local TTL aborts. A commit is
// made durable first (writes + decision record in one forced append), then
// applied; an abort is presumed and waits for no fsync. Either way the
// in-doubt entry is retired, the outcome recorded for peers that may ask
// later, and the protections released. Duplicate deliveries are answered OK
// without re-applying; a delivery that conflicts with a recorded outcome is
// refused.
//
// A node that holds the prepare record applies the writes it promised there,
// whatever the sender's copy says. The coordinator sends each part the writes
// it prepared, so for its decisions the two agree; a resolving peer can live
// in another quorum group (cross-shard prepares stamp the union of all
// touched groups' write quorums), so its copy can name another group's
// keyspace. The sender's writes matter only to a node that lost its entry.
func (n *Node) applyDecision(txID string, commit bool, writes []store.WriteDesc, release []store.ObjectID, src decisionSource, traceID string, serveID uint64) *wire.Response {
	var entry *inDoubtTx
	for {
		n.idMu.Lock()
		if ch, inflight := n.tombstoning[txID]; inflight {
			// A status query is making an abort tombstone for this id
			// durable; wait for its fsync before answering from the map.
			n.idMu.Unlock()
			<-ch
			continue
		}
		if prev, known := n.decidedLocked(txID); known {
			// Duplicate or conflicting delivery. A lingering in-doubt entry
			// alongside a known outcome is stale by definition — retire it
			// and release its protections, or they would be held forever
			// (the normal decision path already removed its own entry under
			// the lock below).
			stale := n.inDoubt[txID]
			delete(n.inDoubt, txID)
			n.idMu.Unlock()
			if stale != nil {
				n.unprotect(txID, stale.rec.Release)
			}
			if prev != commit {
				return &wire.Response{Status: wire.StatusError, Detail: "conflicting decision for terminated transaction"}
			}
			return &wire.Response{Status: wire.StatusOK}
		}
		entry = n.inDoubt[txID]
		n.idMu.Unlock()
		break
	}
	if entry != nil {
		// The sender's release set is its own view; this node's prepare
		// record knows exactly which protections it installed (replicas can
		// differ on ErrNotFound reads). Unprotect is idempotent, so release
		// the union.
		release = append(append([]store.ObjectID(nil), release...), entry.rec.Release...)
		writes = entry.rec.Writes
	}

	// The shared commitMu keeps the append→apply→publish window away from a
	// checkpoint's cut: the cut comes either before this decision's records
	// (which then sit at or above it, where replay looks) or after the
	// outcome is applied and published (and the carry-over holds it).
	n.commitMu.RLock()
	if commit {
		// Durability point: the whole write-set plus the decision record is
		// appended and fsynced before any of it is applied or the decision
		// acked.
		if n.wal != nil {
			if err := n.appendForced(txID, traceID, serveID, commitRecords(txID, writes)...); err != nil {
				n.commitMu.RUnlock()
				return &wire.Response{Status: wire.StatusError, Detail: "wal: " + err.Error()}
			}
		}
		for _, w := range writes {
			if err := n.store.Apply(w, txID); err != nil {
				n.commitMu.RUnlock()
				return &wire.Response{Status: wire.StatusError, Detail: err.Error()}
			}
			n.meter.RecordWrite(w.ID)
		}
	}
	n.idMu.Lock()
	delete(n.inDoubt, txID)
	n.setDecidedLocked(txID, commit)
	n.idMu.Unlock()
	var logErr error
	if !commit && n.wal != nil {
		// Abort is presumed: the record is staged, not forced, so the rows
		// are not held for an fsync whose only content is "abort". A crash
		// that loses it resurfaces the prepare as in-doubt, and no peer can
		// answer that query with anything but aborted or in-doubt — the
		// coordinator decided abort, so no commit record exists anywhere.
		logErr = n.wal.AppendUnforced(wal.Record{Type: wal.RecordDecision, TxID: txID})
	}
	n.commitMu.RUnlock()

	// Release whatever the log said: a node with a failing disk must not
	// keep rows it has been told to let go. Apply already released written
	// objects; the rest are no-ops or the prepare's read holds.
	n.unprotect(txID, release)

	switch {
	case src == fromCoordinator && entry != nil && entry.overdue:
		n.resCtr.coordinatorDecided.Add(1)
	case src == fromPeer && commit:
		n.resCtr.peerCommits.Add(1)
	case src == fromPeer && !commit:
		n.resCtr.peerAborts.Add(1)
	case src == fromTTL:
		n.resCtr.ttlAborts.Add(1)
	}
	if logErr != nil {
		return &wire.Response{Status: wire.StatusError, Detail: "wal: " + logErr.Error()}
	}
	return &wire.Response{Status: wire.StatusOK}
}

// unprotect drops txID's protections on ids. Releasing an unprotected
// object is a no-op, and ErrNotOwner/ErrNotFound mean another transaction
// raced in after an earlier release — nothing to do.
func (n *Node) unprotect(txID string, ids []store.ObjectID) {
	for _, id := range ids {
		_ = n.store.Unprotect(id, txID)
	}
}

// commitRecords lays out a commit decision for one Append (one fsync wait
// for the whole transaction, and the torn-tail ordering the recovery logic
// depends on: writes first, decision last, so a tear can lose the decision
// but never produce a decision without its writes).
func commitRecords(txID string, writes []store.WriteDesc) []wal.Record {
	recs := writeRecords(txID, writes)
	return append(recs, wal.Record{Type: wal.RecordDecision, TxID: txID, Commit: true})
}

// writeRecords renders applied writes as log records, with room for one
// more (the decision record that follows a commit's writes).
func writeRecords(txID string, writes []store.WriteDesc) []wal.Record {
	recs := make([]wal.Record, 0, len(writes)+1)
	for _, w := range writes {
		recs = append(recs, wal.Record{
			TxID:    txID,
			Block:   w.Block,
			Key:     w.ID,
			Version: w.NewVersion,
			Value:   w.Value,
		})
	}
	return recs
}

// handleTxStatus answers a peer's termination query. The answer is
// authoritative by construction: a known outcome is returned as is, an
// in-doubt entry is reported as such, and a transaction this node has no
// record of is promised to abort — the tombstone (durable when the node has
// a WAL) refuses any late prepare, so the unanimous yes vote the
// coordinator would need can no longer form. The promise only becomes
// visible once it is durable: the tombstone is claimed in memory first (so
// no prepare can slip in underneath), but every authoritative answer —
// including a concurrent duplicate query's — waits for the decision
// record's fsync, and a failed append rolls the claim back instead of
// leaving a promise backed by nothing. Once the bounded decided memory has
// ever evicted outcomes, an unrecorded transaction is answered Unknown
// instead: absence no longer proves this node didn't commit it, so no
// promise that could contradict an evicted commit is made.
func (n *Node) handleTxStatus(req *wire.Request) *wire.Response {
	for {
		n.idMu.Lock()
		if ch, inflight := n.tombstoning[req.TxID]; inflight {
			n.idMu.Unlock()
			<-ch
			continue
		}
		if commit, known := n.decidedLocked(req.TxID); known {
			n.idMu.Unlock()
			return txStateResponse(commit)
		}
		if _, ok := n.inDoubt[req.TxID]; ok {
			n.idMu.Unlock()
			return &wire.Response{Status: wire.StatusOK, TxStatus: &wire.TxStatusResponse{State: wire.TxStateInDoubt}}
		}
		if n.evictedDecided {
			n.idMu.Unlock()
			return &wire.Response{Status: wire.StatusOK, TxStatus: &wire.TxStatusResponse{State: wire.TxStateUnknown}}
		}
		key, _ := n.rememberLocked(req.TxID, false)
		if n.wal == nil {
			n.idMu.Unlock()
			return txStateResponse(false)
		}
		ch := make(chan struct{})
		n.tombstoning[req.TxID] = ch
		n.idMu.Unlock()

		// The abort promise must survive a crash: without it a restarted
		// node could vote yes on a late prepare the asker already aborted
		// against. commitMu orders the record against checkpoint cuts like a
		// prepare's (see registerPrepare), and is held until the outcome is
		// in the decided log too: a cut then either finds it there or finds
		// the record at or above the cut. A promise whose record failed never
		// reaches the log, so no checkpoint carries it.
		n.commitMu.RLock()
		err := n.wal.Append(wal.Record{Type: wal.RecordDecision, TxID: req.TxID})
		n.idMu.Lock()
		delete(n.tombstoning, req.TxID)
		if err != nil {
			delete(n.decidedCur.outcome, req.TxID)
			delete(n.decidedPrev.outcome, req.TxID)
		} else {
			n.logDecidedLocked(key, false)
		}
		n.idMu.Unlock()
		n.commitMu.RUnlock()
		close(ch)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Detail: "wal: " + err.Error()}
		}
		return txStateResponse(false)
	}
}

func txStateResponse(commit bool) *wire.Response {
	st := wire.TxStateAborted
	if commit {
		st = wire.TxStateCommitted
	}
	return &wire.Response{Status: wire.StatusOK, TxStatus: &wire.TxStatusResponse{State: st}}
}

// StartResolver launches the background termination loop: every pollEvery
// (default ResolveAfter/2) it runs one ResolveNow pass over the in-doubt
// table using client to reach quorum peers. Stop it with StopResolver.
func (n *Node) StartResolver(client transport.Client, pollEvery time.Duration) {
	if pollEvery <= 0 {
		pollEvery = n.resolveAfter / 2
	}
	if pollEvery <= 0 {
		pollEvery = time.Second
	}
	n.resolverMu.Lock()
	defer n.resolverMu.Unlock()
	if n.resolverStop != nil {
		return // already running
	}
	stop := make(chan struct{})
	n.resolverStop = stop
	go func() {
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), pollEvery*4)
				n.ResolveNow(ctx, client)
				cancel()
			}
		}
	}()
}

// StopResolver stops the background termination loop (no-op if not running).
func (n *Node) StopResolver() {
	n.resolverMu.Lock()
	defer n.resolverMu.Unlock()
	if n.resolverStop != nil {
		close(n.resolverStop)
		n.resolverStop = nil
	}
}

// ResolveNow runs one cooperative-termination pass: every in-doubt entry
// older than ResolveAfter refreshes its protections (so the store's lease
// expiry cannot release objects out from under an undecided transaction)
// and queries the quorum peers recorded in its prepare. It returns the
// number of entries resolved this pass, once the outcomes it forwarded have
// been delivered or given up on. Exported so tests can drive the protocol
// deterministically without the background loop.
func (n *Node) ResolveNow(ctx context.Context, client transport.Client) int {
	now := n.now()
	n.idMu.Lock()
	due := make([]*inDoubtTx, 0, len(n.inDoubt))
	for _, e := range n.inDoubt {
		if now.Sub(e.prepared) >= n.resolveAfter {
			e.overdue = true
			due = append(due, e)
		}
	}
	n.idMu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].rec.TxID < due[j].rec.TxID })

	resolved := 0
	var forwards sync.WaitGroup
	defer forwards.Wait()
	for _, e := range due {
		if ctx.Err() != nil {
			break
		}
		if n.resolveOne(ctx, client, e, now, &forwards) {
			resolved++
		}
	}
	return resolved
}

// resolveOne runs the termination protocol for a single in-doubt entry. The
// outcome forwards it starts are counted in forwards, which the pass waits
// for once every due entry has had its turn.
func (n *Node) resolveOne(ctx context.Context, client transport.Client, e *inDoubtTx, now time.Time, forwards *sync.WaitGroup) bool {
	txID := e.rec.TxID
	// Keep the lease alive while undecided: re-protecting refreshes this
	// holder's protection timestamps, pausing the store's TTL release. Only
	// while the entry is still in the table, and under its lock: a decision
	// retires the entry before it releases, so a pass that examined the
	// entry earlier cannot re-install protections behind that release.
	n.idMu.Lock()
	if n.inDoubt[txID] != e {
		n.idMu.Unlock()
		return false
	}
	n.reprotect(&e.rec)
	n.idMu.Unlock()

	peers := make([]quorum.NodeID, 0, len(e.rec.Quorum))
	for _, p := range e.rec.Quorum {
		if p != n.id {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return false // degenerate single-node quorum: only the coordinator can decide
	}

	// Query every peer in parallel; any single authoritative answer decides.
	type answer struct {
		peer  quorum.NodeID
		state wire.TxState
		ok    bool
	}
	answers := make([]answer, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p quorum.NodeID) {
			defer wg.Done()
			n.resCtr.statusQueries.Add(1)
			resp, err := client.Call(ctx, p, &wire.Request{Kind: wire.KindTxStatus, TxID: txID})
			if err != nil || resp == nil || resp.Status != wire.StatusOK || resp.TxStatus == nil {
				answers[i] = answer{peer: p}
				return
			}
			answers[i] = answer{peer: p, state: resp.TxStatus.State, ok: true}
		}(i, p)
	}
	wg.Wait()

	sawCommit, sawAbort := false, false
	complete := true
	var stillInDoubt []quorum.NodeID
	for _, a := range answers {
		if !a.ok {
			complete = false
			continue
		}
		switch a.state {
		case wire.TxStateCommitted:
			sawCommit = true
		case wire.TxStateAborted:
			sawAbort = true
		case wire.TxStateInDoubt:
			stillInDoubt = append(stillInDoubt, a.peer)
		default:
			// TxStateUnknown: the peer's bounded decided memory has evicted
			// outcomes, so it will not promise abort for a transaction it
			// has no record of. Treat the round as incomplete — the TTL
			// abort needs a complete all-in-doubt round as its proof, and
			// this peer can no longer supply it.
			complete = false
		}
	}

	// A commit answer wins over an abort answer: commit is only ever
	// recorded after a unanimous yes vote and a delivered decision, whereas
	// an abort can be a promise from a peer that merely evicted its memory
	// of the transaction.
	commit, decided := sawCommit, sawCommit || sawAbort

	switch {
	case decided:
		if resp := n.applyDecision(txID, commit, e.rec.Writes, e.rec.Release, fromPeer, "", 0); resp.Status != wire.StatusOK {
			return false
		}
	case complete && len(stillInDoubt) == len(peers) && now.Sub(e.prepared) >= n.ttlAbortAfter:
		// Every quorum peer answered and all are equally in-doubt: no
		// participant ever received a decision. Past the TTL deadline —
		// which outlives the coordinator's decide budget — that silence
		// proves no commit was delivered or ever will be, so abort.
		if resp := n.applyDecision(txID, false, nil, e.rec.Release, fromTTL, "", 0); resp.Status != wire.StatusOK {
			return false
		}
	default:
		return false // unreachable peers or undecided round: retry next pass
	}

	// Forward the outcome to peers still in-doubt so they release without
	// having to run their own round (idempotent if they already learned it).
	// The forwards go out together and the pass moves on without them: a peer
	// that never answers holds its own call until the pass's context ends,
	// not the forwards to the other peers or the entries after this one.
	fwd := &wire.Request{
		Kind: wire.KindDecision,
		TxID: txID,
		Decision: &wire.DecisionRequest{
			Commit:    commit,
			Forwarded: true,
			Writes:    e.rec.Writes,
			Release:   e.rec.Release,
		},
	}
	for _, p := range stillInDoubt {
		n.resCtr.resolveForwards.Add(1)
		forwards.Add(1)
		go func() {
			defer forwards.Done()
			_, _ = client.Call(ctx, p, fwd)
		}()
	}
	return true
}
