// Package server implements a quorum node: a full replica of the shared
// object space that serves transactional reads with incremental validation,
// acts as a two-phase-commit participant (protect → validate → vote,
// apply/release), and maintains the per-object write counters the ACN
// dynamic module consumes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/contention"
	"qracn/internal/forensics"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wal"
	"qracn/internal/wire"
)

// StageLatencies are the node's always-on per-stage latency histograms.
// Recording is a pair of atomic adds, so they stay live even in untraced
// production runs and feed the /metrics exposition and harness reports.
type StageLatencies struct {
	// ReadServe is the server-side cost of a read (validate + fetch).
	ReadServe metrics.LatencyHistogram
	// ReadWait is how long a read of an exclusively protected object waited
	// for the holder's decision before it was served (awaitWriter); a read
	// that found nothing held records nothing.
	ReadWait metrics.LatencyHistogram
	// ReadWaitCapped counts the waits that gave up at their bound instead of
	// seeing the object released; their reads answer busy.
	ReadWaitCapped atomic.Uint64
	// PrepareServe is 2PC phase one (protect + validate + vote).
	PrepareServe metrics.LatencyHistogram
	// CommitApply is 2PC phase two (WAL append + store apply + release).
	CommitApply metrics.LatencyHistogram
	// RepairApply is a read-repair push application.
	RepairApply metrics.LatencyHistogram
	// FsyncWait is the wait of every forced WAL append: a yes vote's prepare
	// record inside PrepareServe, a commit decision inside CommitApply.
	FsyncWait metrics.LatencyHistogram
	// CheckpointHold is how long each checkpoint's cut held commitMu
	// exclusively: the only part of a checkpoint prepares and decisions on
	// the node wait for.
	CheckpointHold metrics.LatencyHistogram
}

// Config tunes a node.
type Config struct {
	// StatsWindow is the contention-meter window length (the paper's
	// observation period, 10 s on their testbed; milliseconds in tests).
	StatsWindow time.Duration
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
	// WAL, when non-nil, makes the node durable: a yes vote and a commit
	// decision are appended to the log and fsynced BEFORE the request is
	// acknowledged, so an acked commit survives a process crash. Abort
	// decisions and read-repair pushes are logged unforced: recovery does
	// without the ones a crash loses.
	WAL *wal.Log
	// SnapshotEvery is the floor of the automatic checkpoint trigger: a
	// checkpoint (snapshot + segment compaction, in the background) is due
	// once the records logged since the last one's cut reach the larger of
	// SnapshotEvery and the size of the last snapshot, objects plus carried
	// records (0: default 4096; negative: never automatically).
	SnapshotEvery int
	// Tracer, when non-nil, records a serve span for every request that
	// carries a trace ID, with a wal-fsync child for each forced append it
	// waits on. Untraced requests skip all span work.
	Tracer *trace.Tracer
	// ResolveAfter is how long a yes vote may sit undecided before the
	// node starts the cooperative termination protocol — querying the
	// quorum peers recorded in its prepare for the outcome (0: 5s).
	ResolveAfter time.Duration
	// TTLAbortAfter is the last-resort abort deadline for an in-doubt
	// transaction when a complete status round finds every quorum peer
	// equally in-doubt (0: 60s). It must exceed the coordinators' decide
	// budget (dtm Config.DecideTimeout): the all-in-doubt round only proves
	// no commit was delivered; the TTL is what proves none will be.
	TTLAbortAfter time.Duration
	// Shards, when non-nil, is the cluster's shard map. Every node serves it
	// to clients via wire.KindShardMap (any node can answer, the map is
	// static and identical cluster-wide); nodes without one answer
	// StatusNotFound so unsharded deployments stay unchanged.
	Shards *shard.Map
	// MaxInflight bounds concurrently executing gated requests (reads,
	// contention-stats queries among them, prepares, batches, sync, repair,
	// inspect) — the admission gate. Excess requests queue up to QueueDepth and are shed with
	// StatusOverloaded beyond it. 0 disables the gate entirely (the
	// pre-overload-protection behaviour). 2PC decisions, termination-protocol
	// traffic, pings, and shard-map fetches are never gated; see
	// admissionGated.
	MaxInflight int
	// QueueDepth bounds waiters queued behind a full gate (0: 4×MaxInflight).
	QueueDepth int
	// MaxQueueAge is the adaptive-LIFO threshold: once the queue's head has
	// waited this long, released slots go to the NEWEST waiter and aged
	// waiters are shed immediately (0: 100ms).
	MaxQueueAge time.Duration
	// ForensicsRing sizes the abort-forensics event rings
	// (0: forensics.DefaultRingSize). Forensics is on by default: recording
	// happens only on conflict paths (a Busy or validation-invalid answer),
	// so the conflict-free hot path pays nothing.
	ForensicsRing int
	// NoForensics disables forensic event capture entirely (the recorder is
	// nil; every producer call is a nil-safe no-op).
	NoForensics bool
}

// Default termination-protocol deadlines (the zero values of
// Config.ResolveAfter and Config.TTLAbortAfter). Exported so deployment
// layers that also know the coordinators' decide budget can validate the
// safety relationship TTLAbortAfter > DecideTimeout against the defaults.
const (
	DefaultResolveAfter  = 5 * time.Second
	DefaultTTLAbortAfter = 60 * time.Second
)

// readWaitCap bounds how long a read waits for the decision of a transaction
// that holds one of its objects exclusively (awaitWriter), and a hold at least
// this old is not waited for. It was set above the durable benchmark's
// protect_hold p99 of 3.3 ms, but traced neworder-durable runs read that p99
// at 3.74 and 3.85 ms: the margin is about 4 %, and the holds that outlive
// the cap are why some reads still answer busy after the wait. A wait scaled
// to the hold (ROADMAP item 9) would replace the fixed cap.
const readWaitCap = 4 * time.Millisecond

// Node is one quorum server.
type Node struct {
	id     quorum.NodeID
	site   string
	store  *store.Store
	meter  *contention.Meter
	tracer *trace.Tracer
	stages StageLatencies

	wal      *wal.Log
	snapEvry uint64
	// commitMu orders a checkpoint's cut against the append→apply window of
	// in-flight writes: writers hold it shared across (WAL append, store
	// apply), the cut takes it exclusively, so every record in a segment
	// below the cut has its store apply behind it.
	commitMu sync.RWMutex
	// ckMu runs one checkpoint per node at a time; ckAuto is set while an
	// automatic one is scheduled or running.
	ckMu   sync.Mutex
	ckAuto atomic.Bool

	// recovering gates the recovery handshake: while set, every request but
	// KindPing is refused with StatusUnavailable so clients fail over
	// instead of reading pre-replay (stale or empty) state. Cleared by
	// FinishRecovery once the WAL replay has been installed.
	recovering atomic.Bool

	// In-doubt 2PC state (indoubt.go): votes whose outcome this node has
	// not yet learned, and the bounded memory of outcomes it has, for
	// answering peers' termination queries. tombstoning latches abort
	// promises whose decision record is still being fsynced: the in-memory
	// tombstone already refuses prepares, but no authoritative answer may
	// quote it until it is durable. evictedDecided flips (permanently) once
	// generation rotation has dropped outcomes — from then on "no record"
	// stops proving "never decided here" and unknown-tx status queries
	// answer Unknown instead of promising abort.
	idMu           sync.Mutex
	inDoubt        map[string]*inDoubtTx
	decidedCur     decidedGen
	decidedPrev    decidedGen
	tombstoning    map[string]chan struct{}
	evictedDecided bool
	resCtr         resolutionCounters

	now           func() time.Time
	resolveAfter  time.Duration
	ttlAbortAfter time.Duration
	resolverMu    sync.Mutex
	resolverStop  chan struct{}

	shards *shard.Map

	// forensics records conflict observations on the validation/lock paths:
	// which key refused a read or prepare, and which transaction held it.
	// nil when Config.NoForensics is set (every method is nil-safe).
	forensics *forensics.Recorder

	// gate is the admission limiter (nil: unbounded, Config.MaxInflight 0);
	// admExpired counts deadline-expired-on-arrival rejections, which happen
	// before the gate and regardless of whether one is configured.
	gate       *admissionGate
	admExpired atomic.Uint64

	// readWaitCap is the package constant; tests that must not race the
	// cap lengthen it.
	readWaitCap time.Duration
}

// NewNode creates a node with an empty replica.
func NewNode(id quorum.NodeID, cfg Config) *Node {
	if cfg.StatsWindow <= 0 {
		cfg.StatsWindow = 10 * time.Second
	}
	snapEvery := uint64(4096)
	switch {
	case cfg.SnapshotEvery > 0:
		snapEvery = uint64(cfg.SnapshotEvery)
	case cfg.SnapshotEvery < 0:
		snapEvery = 0
	}
	if cfg.ResolveAfter <= 0 {
		cfg.ResolveAfter = DefaultResolveAfter
	}
	if cfg.TTLAbortAfter <= 0 {
		cfg.TTLAbortAfter = DefaultTTLAbortAfter
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	var rec *forensics.Recorder
	if !cfg.NoForensics {
		rec = forensics.New(cfg.ForensicsRing)
	}
	return &Node{
		id:            id,
		site:          fmt.Sprintf("node-%d", id),
		store:         store.New(),
		meter:         contention.NewMeter(cfg.StatsWindow, cfg.Now),
		wal:           cfg.WAL,
		snapEvry:      snapEvery,
		tracer:        cfg.Tracer,
		inDoubt:       make(map[string]*inDoubtTx),
		decidedCur:    decidedGen{outcome: make(map[string]bool)},
		decidedPrev:   decidedGen{outcome: make(map[string]bool)},
		tombstoning:   make(map[string]chan struct{}),
		now:           now,
		resolveAfter:  cfg.ResolveAfter,
		ttlAbortAfter: cfg.TTLAbortAfter,
		shards:        cfg.Shards,
		forensics:     rec,
		gate:          newAdmissionGate(cfg.MaxInflight, cfg.QueueDepth, cfg.MaxQueueAge, now),
		readWaitCap:   readWaitCap,
	}
}

// Forensics exposes the node's conflict recorder (nil when disabled).
func (n *Node) Forensics() *forensics.Recorder { return n.forensics }

// shardFor maps a key to its shard index, or -1 on unsharded nodes.
func (n *Node) shardFor(id store.ObjectID) int {
	if n.shards == nil {
		return -1
	}
	return n.shards.ShardFor(id)
}

// noteConflict records a server-side conflict observation: key refused
// req.TxID because a protection was active (lock-conflict; witness names the
// holder and its mode, see forensics.Witness), or a validation failure when
// witness is "" (read-validation). These are witness events, not final
// aborts — the client may still retry and commit — so the client-side
// recorder remains the authority on abort outcomes; the server ring answers
// "which key, which holder, which mode" at the replica that refused.
func (n *Node) noteConflict(req *wire.Request, key store.ObjectID, witness string) {
	if n.forensics == nil {
		return
	}
	cause := forensics.CauseLockConflict
	if witness == "" {
		cause = forensics.CauseReadValidation
	}
	n.forensics.RecordAbort(forensics.AbortEvent{
		At:              n.now(),
		TxID:            req.TxID,
		BlockIndex:      -1,
		UnitAnchorID:    -1,
		Key:             string(key),
		Shard:           n.shardFor(key),
		Cause:           cause,
		ConflictingTxID: witness,
	})
}

// busyWitness renders the conflict witness of a store refusal: the holder
// and mode the store reported under the lock that refused.
func busyWitness(err error) string {
	var be *store.BusyError
	if !errors.As(err, &be) {
		return ""
	}
	return forensics.Witness(be.Holder, be.Shared)
}

// writeSet indexes a prepare's write-set: membership decides an entry's
// protection mode (written: exclusive, only read: shared), at prepare time,
// on lease refresh and on recovery alike, so the mode is never stored.
func writeSet(writes []store.WriteDesc) map[store.ObjectID]bool {
	written := make(map[store.ObjectID]bool, len(writes))
	for _, w := range writes {
		written[w.ID] = true
	}
	return written
}

// protect takes txID's protection on one read-set entry, in the mode its
// write-set membership gives it. Written objects may not exist yet (a
// first-ever write creates them); objects only read are never created.
func (n *Node) protect(id store.ObjectID, txID string, written bool) error {
	if written {
		return n.store.Protect(id, txID, true)
	}
	return n.store.ProtectShared(id, txID)
}

// reprotect re-installs (or refreshes the lease of) every protection a
// durable prepare recorded, in the mode its write-set gives each entry.
func (n *Node) reprotect(p *wal.Record) {
	written := writeSet(p.Writes)
	for _, id := range p.Release {
		_ = n.protect(id, p.TxID, written[id])
	}
}

// ID returns the node's quorum ID.
func (n *Node) ID() quorum.NodeID { return n.id }

// Store exposes the replica for seeding and for test audits.
func (n *Node) Store() *store.Store { return n.store }

// Meter exposes the contention meter (tests only).
func (n *Node) Meter() *contention.Meter { return n.meter }

// WAL exposes the node's commit log (nil when the node is volatile).
func (n *Node) WAL() *wal.Log { return n.wal }

// Tracer exposes the node's tracer (nil when the node is untraced).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Stages exposes the node's per-stage latency histograms.
func (n *Node) Stages() *StageLatencies { return &n.stages }

// AttachWAL installs the commit log on a node built before its log was
// opened. The durable restart sequence needs this ordering: bind the
// listener on a recovering node first (so clients get StatusUnavailable and
// fail over), then replay the log, then attach and FinishRecovery. Only
// legal while the node is recovering — the recovering gate is what keeps
// handlers from racing this write.
func (n *Node) AttachWAL(l *wal.Log) { n.wal = l }

// BeginRecovery puts the node in the recovering state: it answers pings but
// refuses every other request with StatusUnavailable. Call before exposing
// a restarted node's listener, so clients fail over during replay instead
// of observing pre-replay state.
func (n *Node) BeginRecovery() { n.recovering.Store(true) }

// FinishRecovery installs the WAL-recovered object state into the replica
// and opens the node for service. In-doubt prepares rebuilt from the log
// re-enter the in-doubt table with their protections re-installed in the
// mode the record's write-set gives each entry (the in-memory locks died
// with the process, but the durable yes vote still binds this node), and
// known outcomes seed the decided memory so peers' termination queries get
// authoritative answers across the restart.
func (n *Node) FinishRecovery(rec *wal.Recovered) {
	if rec != nil {
		n.store.Restore(rec.Objects)
		n.idMu.Lock()
		for tx, commit := range rec.Decided {
			n.setDecidedLocked(tx, commit)
		}
		for _, p := range rec.InDoubt {
			// The resolve clock restarts at recovery time: the coordinator
			// gets a fresh window to deliver before peers are queried.
			n.inDoubt[p.TxID] = &inDoubtTx{rec: p, prepared: n.now()}
			n.resCtr.recoveredInDoubt.Add(1)
		}
		n.idMu.Unlock()
		for i := range rec.InDoubt {
			n.reprotect(&rec.InDoubt[i])
		}
	}
	n.recovering.Store(false)
}

// Recovering reports whether the node is still replaying.
func (n *Node) Recovering() bool { return n.recovering.Load() }

// logRepair stages a read-repair push unforced: the push is best effort, and
// a replica that loses one in a crash is behind again and is repaired again.
// The caller holds n.commitMu shared across apply and log, so a record below
// a checkpoint's cut always has its value in the snapshot taken after it.
func (n *Node) logRepair(w store.WriteDesc) error {
	if n.wal == nil {
		return nil
	}
	return n.wal.AppendUnforced(writeRecords("read-repair", []store.WriteDesc{w})...)
}

// Checkpoint snapshots the replica into the WAL and compacts old segments,
// returning once that is done; one already running (an automatic one) is
// waited for first. No-op on volatile nodes.
//
// Only the cut holds commitMu, exclusively: the log rolls to segment N, the
// in-doubt table is copied and the decided-outcome logs are taken as they
// stand. Every record
// below N then has its store apply behind it, and the snapshot, taken after
// the lock is released, reflects them: a value applied later is durable too
// (a commit is forced before it is applied; a repair pushes a committed
// version), and one whose record lies at or above N replays version-max over
// it. The snapshot captures object state only, so the node's live 2PC memory
// — in-doubt prepares (undecided yes votes whose protections must survive)
// and the decided-outcome window (promises already made to resolving peers)
// — rides along as carry-over records, durable at or above N before
// compaction removes anything (wal.Log.FinishCheckpoint). Compaction
// therefore never drops a promise, with no crash window in between.
func (n *Node) Checkpoint() error {
	if n.wal == nil {
		return nil
	}
	n.ckMu.Lock()
	defer n.ckMu.Unlock()
	idx, live, decided, err := n.cut()
	if err != nil {
		return err
	}
	keep := append(make([]wal.Record, 0, len(live)+len(decided[0])+len(decided[1])), live...)
	// Oldest generation first: replay keeps the last outcome it reads.
	for _, gen := range decided {
		for _, d := range gen {
			keep = append(keep, wal.Record{Type: wal.RecordDecision, TxID: d.txID, Commit: d.commit})
		}
	}
	return n.wal.FinishCheckpoint(idx, n.store.Committed(), keep...)
}

// cut is a checkpoint's exclusive section (see Checkpoint): the log's cut
// index, the in-doubt prepares, and the two decided generations' logs as
// they stand (slice headers: entries are only ever appended past them).
func (n *Node) cut() (idx uint64, live []wal.Record, decided [2][]decidedOutcome, err error) {
	n.commitMu.Lock()
	start := time.Now()
	defer func() {
		n.stages.CheckpointHold.Record(time.Since(start))
		n.commitMu.Unlock()
	}()
	if idx, err = n.wal.Cut(); err != nil {
		return 0, nil, decided, err
	}
	n.idMu.Lock()
	defer n.idMu.Unlock()
	decided = [2][]decidedOutcome{n.decidedPrev.log, n.decidedCur.log}
	live = make([]wal.Record, 0, len(n.inDoubt))
	for _, e := range n.inDoubt {
		live = append(live, e.rec)
	}
	return idx, live, decided, nil
}

// maybeCheckpoint starts an automatic checkpoint in the background once one
// is due (wal.Log.CheckpointDue), unless one is already scheduled or
// running; the commit decision that found it due does not wait for it.
func (n *Node) maybeCheckpoint() {
	if n.wal == nil || n.snapEvry == 0 || !n.wal.CheckpointDue(n.snapEvry) {
		return
	}
	if !n.ckAuto.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer n.ckAuto.Store(false)
		// A failure is counted by the log (Stats.CheckpointFailures), and the
		// cut restarted the trigger count: the next attempt comes a whole
		// threshold later, not on the next decision.
		_ = n.Checkpoint()
	}()
}

// Handle implements transport.Handler; every request dispatches inline. The
// context carries the caller's deadline/cancellation (the transport cancels it
// when the client gives up).
//
// A request carrying span context (TraceID set) gets a "serve-<kind>" span
// parented to the client span that issued it; untraced requests skip every
// span branch, so the hot path stays allocation-free.
func (n *Node) Handle(ctx context.Context, req *wire.Request) *wire.Response {
	if n.recovering.Load() && req.Kind != wire.KindPing {
		return &wire.Response{Status: wire.StatusUnavailable, Detail: "node recovering: replaying commit log"}
	}
	// Deadline-expired work is rejected before the admission gate, the
	// dispatch locks, and the WAL: the caller has already given up, so the
	// cheapest correct answer is the only one worth producing. Decisions and
	// termination-protocol traffic are exempt (deadlineExempt) — an in-doubt
	// transaction must never be ended early by a stale caller deadline.
	if resp := n.checkDeadline(req); resp != nil {
		return resp
	}
	if req.Kind == wire.KindRead {
		n.awaitWriter(ctx, req)
	}
	if n.gate != nil && admissionGated(req.Kind) {
		release, shed := n.gate.acquire(ctx)
		if shed != nil {
			return shed
		}
		defer release()
	}
	return n.serve(req)
}

// awaitWriter holds a read that names an exclusively protected object until
// the holder's decision releases it (store.AwaitRelease), so the read is
// served the committed version instead of the one the commit replaces. The
// wait comes before the admission gate and holds no lock and no slot. It is
// bounded by readWaitCap, the request's deadline and ctx; a read that gives
// up is served as before and answers busy. Validation runs after the wait, so
// the reply's Invalid also names what the awaited commit overwrote.
//
// The wait cannot deadlock: the waiting read holds nothing, and an exclusive
// protection outlives its prepare only on a member that voted yes, so the
// read waits only for a transaction in its commit phase, which sends no
// reads. A stats query (no object) never waits, nor does any other kind.
func (n *Node) awaitWriter(ctx context.Context, req *wire.Request) {
	r := req.Read
	if r == nil || r.Object == "" {
		return
	}
	limit := n.readWaitCap
	if req.Deadline != 0 {
		limit = min(limit, time.Duration(req.Deadline-n.now().UnixNano()))
	}
	waited, capped := n.store.AwaitRelease(ctx, n.readWaitCap, limit, r.Object, r.More...)
	if waited == 0 {
		return
	}
	n.stages.ReadWait.Record(waited)
	if capped {
		n.stages.ReadWaitCapped.Add(1)
	}
}

// checkDeadline answers StatusOverloaded for a request whose propagated
// deadline passed before this node saw it (nil: proceed). The status choice
// is deliberate: like a shed, an expired reject is explicit backpressure from
// a healthy node — it must not feed failure detection or failover.
func (n *Node) checkDeadline(req *wire.Request) *wire.Response {
	if req.Deadline == 0 || deadlineExempt(req.Kind) {
		return nil
	}
	if n.now().UnixNano() <= req.Deadline {
		return nil
	}
	n.admExpired.Add(1)
	return &wire.Response{Status: wire.StatusOverloaded, Detail: "deadline expired on arrival"}
}

// AdmissionStats snapshots the node's overload-protection counters.
func (n *Node) AdmissionStats() AdmissionStats {
	s := AdmissionStats{Expired: n.admExpired.Load()}
	if n.gate != nil {
		s.Admitted = n.gate.admitted.Load()
		s.Shed = n.gate.shed.Load()
	}
	return s
}

// serve runs an admitted request: trace wrapping + dispatch.
func (n *Node) serve(req *wire.Request) *wire.Response {
	if req.TraceID == "" || n.tracer == nil {
		return n.dispatch(req, 0)
	}
	span := trace.Span{
		Trace:  strings.Clone(req.TraceID), // the span ring outlives the request the ID is a view into
		ID:     trace.NextSpanID(),
		Parent: req.SpanID,
		Name:   "serve-" + req.Kind.String(),
		Site:   n.site,
		Start:  time.Now(),
	}
	resp := n.dispatch(req, span.ID)
	span.End = time.Now()
	span.Detail = resp.Status.String()
	n.tracer.RecordSpan(span)
	return resp
}

// dispatch routes one request. serveID is the enclosing serve span's ID
// (0 when untraced) for handlers that record nested spans (the WAL-fsync
// wait of a prepare record or a commit decision).
func (n *Node) dispatch(req *wire.Request, serveID uint64) *wire.Response {
	switch req.Kind {
	case wire.KindRead:
		t0 := time.Now()
		resp := n.handleRead(req)
		n.stages.ReadServe.Record(time.Since(t0))
		return resp
	case wire.KindPrepare:
		t0 := time.Now()
		resp := n.handlePrepare(req, serveID)
		n.stages.PrepareServe.Record(time.Since(t0))
		return resp
	case wire.KindDecision:
		t0 := time.Now()
		resp := n.handleDecision(req, serveID)
		n.stages.CommitApply.Record(time.Since(t0))
		return resp
	case wire.KindRepair:
		t0 := time.Now()
		resp := n.handleRepair(req)
		n.stages.RepairApply.Record(time.Since(t0))
		return resp
	case wire.KindTxStatus:
		return n.handleTxStatus(req)
	case wire.KindShardMap:
		return n.handleShardMap(req)
	case wire.KindInspect:
		return n.handleInspect(req)
	case wire.KindPing:
		return &wire.Response{Status: wire.StatusOK}
	default:
		return &wire.Response{Status: wire.StatusError, Detail: "unknown request kind"}
	}
}

var _ transport.Handler = (*Node)(nil).Handle

// handleRead answers a read of one object or several (ReadRequest.More)
// under the one admission slot, deadline check, serve span and ReadServe
// record the request took: the validation list and the stats query are
// answered once, and each object gets its own status and conflict witness.
func (n *Node) handleRead(req *wire.Request) *wire.Response {
	r := req.Read
	if r == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "read request missing payload"}
	}
	resp := &wire.ReadResponse{}
	// Incremental validation: report every previously-read object this
	// replica knows a newer version of (paper §II-B). This happens even if
	// the fetch below fails, so the client learns about invalidations as
	// early as possible.
	resp.Invalid = n.store.Validate(r.Validate)
	if len(r.StatsFor) > 0 {
		resp.Stats = n.meter.Levels(r.StatsFor)
	}
	if r.Object == "" {
		// The explicit contention-stats query: the levels are the answer.
		return &wire.Response{Status: wire.StatusOK, Read: resp}
	}
	first, detail := n.readObject(req, r.Object)
	resp.Value, resp.Version = first.Value, first.Version
	if len(r.More) > 0 {
		resp.More = make([]wire.ReadResult, len(r.More))
		for i, id := range r.More {
			resp.More[i], _ = n.readObject(req, id)
		}
	}
	return &wire.Response{Status: first.Status, Detail: detail, ConflictTx: first.ConflictTx, Read: resp}
}

// readObject reads one object of a read request. A busy object is noted as a
// conflict and carries the witness of the holder whose (exclusive) protection
// refused it; detail is the error of a failed read.
func (n *Node) readObject(req *wire.Request, id store.ObjectID) (res wire.ReadResult, detail string) {
	v, ver, err := n.store.Get(id)
	switch {
	case errors.Is(err, store.ErrBusy):
		res.ConflictTx = busyWitness(err)
		n.noteConflict(req, id, res.ConflictTx)
		res.Status = wire.StatusBusy
	case errors.Is(err, store.ErrNotFound):
		res.Status = wire.StatusNotFound
	case err != nil:
		res.Status, detail = wire.StatusError, err.Error()
	default:
		res.Value, res.Version = v, ver
	}
	return res, detail
}

// handlePrepare is 2PC phase one. Per the QR-CN commit rule, protections are
// acquired on the read-set's elements (which contains the write-set, since
// every written object was fetched first): exclusive on the entries the
// prepare writes, shared on the ones it only read. Validation runs after the
// protections are in place so no commit can slip between the two.
//
// A prepare that names its Quorum is a 2PC participant even when it writes
// nothing here — a cross-shard commit sends that shape to a group the
// transaction only reads from — and must hold its reads until the decision
// like any other part, or two transactions reading each other's written
// group could both commit. Only a read-only transaction's validation round
// (no writes, no Quorum) votes without protecting.
func (n *Node) handlePrepare(req *wire.Request, serveID uint64) *wire.Response {
	p := req.Prepare
	if p == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "prepare request missing payload"}
	}
	resp := &wire.PrepareResponse{}

	if len(p.Writes) == 0 && len(p.Quorum) == 0 {
		// Read-only: validation-only vote, no protections.
		if inv := n.store.Validate(p.Reads); len(inv) > 0 {
			resp.Invalid = inv
			n.noteConflict(req, inv[0], "")
			return &wire.Response{Status: wire.StatusOK, Prepare: resp}
		}
		resp.Vote = true
		return &wire.Response{Status: wire.StatusOK, Prepare: resp}
	}

	written := writeSet(p.Writes)
	var protected []store.ObjectID
	rollback := func() {
		for _, id := range protected {
			_ = n.store.Unprotect(id, req.TxID)
		}
	}
	for _, rd := range p.Reads {
		err := n.protect(rd.ID, req.TxID, written[rd.ID])
		switch {
		case errors.Is(err, store.ErrBusy):
			resp.Busy = append(resp.Busy, rd.ID)
			witness := busyWitness(err)
			n.noteConflict(req, rd.ID, witness)
			rollback()
			return &wire.Response{Status: wire.StatusOK, Prepare: resp, ConflictTx: witness}
		case errors.Is(err, store.ErrNotFound):
			// The replica never saw this object; it cannot vote on it,
			// but some other quorum member will hold it. Skip.
		case err != nil:
			rollback()
			return &wire.Response{Status: wire.StatusError, Detail: err.Error(), Prepare: resp}
		default:
			protected = append(protected, rd.ID)
		}
	}
	if inv := n.store.Validate(p.Reads); len(inv) > 0 {
		resp.Invalid = inv
		n.noteConflict(req, inv[0], "")
		rollback()
		return &wire.Response{Status: wire.StatusOK, Prepare: resp}
	}
	// Durability point of the vote: once "yes" leaves this node, the
	// coordinator may commit on it — so the promise (write set, release
	// set, quorum membership) must survive a crash first. A transaction
	// the node already knows to be terminated (an abort promise made to
	// a resolving peer, or a decision that outran this prepare) cannot
	// be re-prepared.
	if err := n.registerPrepare(wal.Record{
		Type:    wal.RecordPrepare,
		TxID:    req.TxID,
		Writes:  p.Writes,
		Release: protected,
		Quorum:  p.Quorum,
	}, req.TraceID, serveID); err != nil {
		rollback()
		if errors.Is(err, errTxTerminated) {
			return &wire.Response{Status: wire.StatusOK, Prepare: resp} // vote no
		}
		return &wire.Response{Status: wire.StatusError, Detail: "wal: " + err.Error(), Prepare: resp}
	}
	resp.Vote = true
	return &wire.Response{Status: wire.StatusOK, Prepare: resp}
}

// handleDecision is 2PC phase two: make a commit durable (a decision
// record batched with the writes in one forced append) and apply the writes
// (counting each toward the object's contention level), or presume an
// abort; either way release every protection the prepare installed and
// retire the in-doubt entry. serveID is the enclosing serve span (0 when
// untraced) so the WAL-fsync wait can appear as a nested span. The outcome
// comes from the coordinator or, Forwarded, from a peer that resolved the
// transaction through the termination protocol. Duplicate deliveries (a
// coordinator retry racing a peer resolution) are idempotent; a delivery
// conflicting with an already-recorded outcome is refused.
func (n *Node) handleDecision(req *wire.Request, serveID uint64) *wire.Response {
	d := req.Decision
	if d == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "decision request missing payload"}
	}
	src := fromCoordinator
	if d.Forwarded {
		src = fromPeer
	}
	resp := n.applyDecision(req.TxID, d.Commit, d.Writes, d.Release, src, req.TraceID, serveID)
	if d.Commit && resp.Status == wire.StatusOK {
		n.maybeCheckpoint()
	}
	return resp
}

// Inspect assembles the node's debug document: its recorded spans of one
// trace (all of them for an empty traceID) and its forensic snapshot with the
// topK hottest keys. An untraced node or one built with NoForensics fills
// that part with nothing rather than failing, so a mixed fleet can still be
// swept.
func (n *Node) Inspect(traceID string, topK int) forensics.Document {
	return forensics.Document{
		Spans:     n.tracer.SpansFor(traceID),
		Forensics: n.forensics.Snapshot(topK),
	}
}

// handleInspect serves the node's debug document to a client or
// qracn-inspect, as the JSON its types already define.
func (n *Node) handleInspect(req *wire.Request) *wire.Response {
	f := req.Inspect
	if f == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "inspect request missing payload"}
	}
	topK := f.TopK
	if topK <= 0 {
		topK = 16
	}
	doc, err := json.Marshal(n.Inspect(f.TraceID, topK))
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Detail: "inspect: " + err.Error()}
	}
	return &wire.Response{Status: wire.StatusOK, Inspect: &wire.InspectResponse{Doc: doc}}
}

// handleShardMap serves the cluster's shard map. A client that already
// caches the current version (HaveVersion matches) gets a membership-free
// reply; an unsharded node answers StatusNotFound so the client falls back
// to single-group routing.
func (n *Node) handleShardMap(req *wire.Request) *wire.Response {
	if req.ShardMap == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "shard-map request missing payload"}
	}
	if n.shards == nil {
		return &wire.Response{Status: wire.StatusNotFound, Detail: "node has no shard map"}
	}
	resp := &wire.ShardMapResponse{Version: n.shards.Version(), Degree: n.shards.Degree()}
	if req.ShardMap.HaveVersion != resp.Version {
		resp.Groups = n.shards.Memberships()
	}
	return &wire.Response{Status: wire.StatusOK, ShardMap: resp}
}

// handleRepair applies a read-repair push: the client observed this replica
// behind the quorum maximum and is forwarding the fresh value. The write is
// version-guarded (Apply only moves versions forward) and refused while the
// object is exclusively protected by another transaction's in-flight
// commit, so a racing 2PC always wins. Shared holders do not refuse it:
// they validated the version they read, and keep their holds.
func (n *Node) handleRepair(req *wire.Request) *wire.Response {
	r := req.Repair
	if r == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "repair request missing payload"}
	}
	if cur, ok := n.store.Version(r.Object); ok && cur >= r.Version {
		return &wire.Response{Status: wire.StatusOK} // already current
	}
	w := store.WriteDesc{ID: r.Object, Value: r.Value, NewVersion: r.Version}
	n.commitMu.RLock()
	defer n.commitMu.RUnlock()
	if err := n.store.Apply(w, "read-repair"); err != nil {
		if errors.Is(err, store.ErrNotOwner) {
			// A commit holds the protection; its decision will publish a
			// version at least as new. Busy tells the client it was a no-op.
			return &wire.Response{Status: wire.StatusBusy}
		}
		return &wire.Response{Status: wire.StatusError, Detail: err.Error()}
	}
	// Log after the version-guarded apply decided the push wins.
	if err := n.logRepair(w); err != nil {
		return &wire.Response{Status: wire.StatusError, Detail: "wal: " + err.Error()}
	}
	return &wire.Response{Status: wire.StatusOK}
}
