package dtm

import (
	"reflect"
	"sync/atomic"

	"qracn/internal/metrics"
)

// StageLatencies are the client runtime's always-on per-stage latency
// histograms: where a transaction's wall-clock time goes. Recording is a
// pair of atomic adds per event, cheap enough to leave on in production.
type StageLatencies struct {
	// Read is one first-access quorum read, including busy retries and
	// quorum failovers.
	Read metrics.LatencyHistogram
	// PrefetchBatch is one batched prefetch round (Tx.Prefetch).
	PrefetchBatch metrics.LatencyHistogram
	// Prepare is one 2PC prepare fan-out round trip.
	Prepare metrics.LatencyHistogram
	// Commit is a whole top-level commit (prepare rounds + decision).
	Commit metrics.LatencyHistogram
}

// Metrics aggregates protocol-level counters for one Runtime. All fields are
// updated atomically and may be read at any time.
type Metrics struct {
	Commits       atomic.Uint64 // top-level commits
	ParentAborts  atomic.Uint64 // full re-executions
	SubAborts     atomic.Uint64 // partial rollbacks (sub-transaction retries)
	BusyBackoffs  atomic.Uint64 // waits caused by protected objects
	RemoteReads   atomic.Uint64 // quorum read round-trips
	Prepares      atomic.Uint64 // 2PC prepare rounds
	PrepareFails  atomic.Uint64 // prepare rounds that voted no
	ReadOnlyFasts atomic.Uint64 // read-only validations (no 2PC)
	// RootFirstRounds counts the prepare rounds (of Prepares) sent in two
	// stages, each part's root before the rest of its write quorum, because
	// the runtime's recent rounds were being refused (prepareorder.go).
	RootFirstRounds atomic.Uint64
	// RootRefusals counts the root-first rounds that ended at stage one: a
	// root voted no (or failed), so the other members were never asked.
	RootRefusals atomic.Uint64
	// CheckpointRollbacks counts partial rollbacks performed by the
	// checkpointing executor (the QR-CP comparison system).
	CheckpointRollbacks atomic.Uint64
	// BatchReads counts batched quorum read rounds (Tx.Prefetch); each also
	// counts once in RemoteReads.
	BatchReads atomic.Uint64
	// PrefetchedObjects counts objects whose first-access read was served by
	// a batched prefetch round instead of its own quorum fan-out.
	PrefetchedObjects atomic.Uint64
	// TransportRetries counts transport-level reconnect attempts (TCP client
	// re-dials after dead connections).
	TransportRetries atomic.Uint64

	// Suspicions counts failure-detector alive→suspected transitions.
	Suspicions atomic.Uint64
	// Probes counts half-open probe admissions of suspected nodes.
	Probes atomic.Uint64
	// Readmissions counts suspected nodes readmitted after a probe answered.
	Readmissions atomic.Uint64
	// Failovers counts quorum re-selections forced by member errors (the
	// retry excluded the failed members and picked a fresh quorum).
	Failovers atomic.Uint64
	// StatsQuorumRetries counts FetchStats rounds that had to re-select
	// their read quorum after incomplete answers.
	StatsQuorumRetries atomic.Uint64
	// Repairs counts read-repair pushes sent to stale quorum members.
	Repairs atomic.Uint64
	// DecisionRetries counts decision fan-out rounds re-sent to participants
	// that had not yet acked the 2PC outcome.
	DecisionRetries atomic.Uint64
	// DecisionsDropped counts participants abandoned with an undelivered
	// decision after the decide budget expired; each is left to the
	// cooperative termination protocol.
	DecisionsDropped atomic.Uint64

	// SingleShardCommits counts committed transactions whose accesses all
	// fell in one quorum group (sharded runtimes only — the fast path that
	// never crosses group boundaries).
	SingleShardCommits atomic.Uint64
	// CrossShardCommits counts committed transactions that spanned two or
	// more quorum groups (per-group prepares under one 2PC).
	CrossShardCommits atomic.Uint64
	// CrossShardAborts counts cross-shard commit attempts rejected at
	// prepare time (validation failure or busy objects in any group).
	CrossShardAborts atomic.Uint64

	// OverloadBackoffs counts jittered same-node retries after a
	// StatusOverloaded answer (backpressure honoured, not failover).
	OverloadBackoffs atomic.Uint64
	// BudgetExhausted counts operations abandoned because the transaction's
	// shared retry budget (failover + busy + overload) ran out.
	BudgetExhausted atomic.Uint64
	// HedgesFired counts hedged quorum reads: the extra-replica request
	// issued after the hedge delay elapsed with the quorum incomplete.
	HedgesFired atomic.Uint64
	// HedgeWins counts hedged reads where the hedge replica's answer let the
	// read complete before the slow original member responded.
	HedgeWins atomic.Uint64

	// Per-cause abort attribution (forensics). Every recorded abort event —
	// partial or full — increments exactly one of these.
	AbortsReadValidation atomic.Uint64 // stale read-set detected by validation
	AbortsLockConflict   atomic.Uint64 // protected object (commit flag held elsewhere)
	AbortsCommitRound    atomic.Uint64 // 2PC prepare round rejected
	AbortsDeadline       atomic.Uint64 // retry budget / context deadline expired
	AbortsOverload       atomic.Uint64 // node backpressure past the retry budget
	// Block-index histogram of recorded aborts: which ACN Block detected the
	// conflict. Block 0 is the top-level context (including commit time).
	AbortsBlock0     atomic.Uint64
	AbortsBlock1     atomic.Uint64
	AbortsBlock2     atomic.Uint64
	AbortsBlock3Plus atomic.Uint64
}

// WALStats aggregates server-side write-ahead-log counters across the nodes
// a harness run owns. The WAL lives on the servers, not in the client
// runtime, so these are collected from wal.Log.Stats() at snapshot time
// rather than maintained by the Metrics counters above.
type WALStats struct {
	// Appends counts Append calls (≈ one per durable commit decision).
	Appends uint64
	// Records counts individual log records written (one per object write).
	Records uint64
	// Fsyncs counts physical fsync batches; Appends/Fsyncs is the group
	// commit amortization factor.
	Fsyncs uint64
	// MaxBatch is the largest number of appends retired by one fsync.
	MaxBatch uint64
	// Snapshots counts store checkpoints taken.
	Snapshots uint64
	// SegmentsRemoved counts log segments compacted away by checkpoints.
	SegmentsRemoved uint64
	// CheckpointFailures counts checkpoints that failed.
	CheckpointFailures uint64
	// ReplayedRecords counts log records re-applied during recovery.
	ReplayedRecords uint64
	// ReplayedSnapshots counts objects restored from snapshots during
	// recovery.
	ReplayedSnapshots uint64
	// TornTails counts recoveries that truncated a torn final record.
	TornTails uint64
}

// Add accumulates another node's WAL counters (MaxBatch merges by maximum).
func (w *WALStats) Add(o WALStats) {
	w.Appends += o.Appends
	w.Records += o.Records
	w.Fsyncs += o.Fsyncs
	if o.MaxBatch > w.MaxBatch {
		w.MaxBatch = o.MaxBatch
	}
	w.Snapshots += o.Snapshots
	w.SegmentsRemoved += o.SegmentsRemoved
	w.CheckpointFailures += o.CheckpointFailures
	w.ReplayedRecords += o.ReplayedRecords
	w.ReplayedSnapshots += o.ReplayedSnapshots
	w.TornTails += o.TornTails
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Commits             uint64
	ParentAborts        uint64
	SubAborts           uint64
	BusyBackoffs        uint64
	RemoteReads         uint64
	Prepares            uint64
	PrepareFails        uint64
	ReadOnlyFasts       uint64
	RootFirstRounds     uint64
	RootRefusals        uint64
	CheckpointRollbacks uint64
	BatchReads          uint64
	PrefetchedObjects   uint64
	TransportRetries    uint64
	Suspicions          uint64
	Probes              uint64
	Readmissions        uint64
	Failovers           uint64
	StatsQuorumRetries  uint64
	Repairs             uint64
	DecisionRetries     uint64
	DecisionsDropped    uint64
	SingleShardCommits  uint64
	CrossShardCommits   uint64
	CrossShardAborts    uint64
	OverloadBackoffs    uint64
	BudgetExhausted     uint64
	HedgesFired         uint64
	HedgeWins           uint64

	AbortsReadValidation uint64
	AbortsLockConflict   uint64
	AbortsCommitRound    uint64
	AbortsDeadline       uint64
	AbortsOverload       uint64
	AbortsBlock0         uint64
	AbortsBlock1         uint64
	AbortsBlock2         uint64
	AbortsBlock3Plus     uint64
}

// Add accumulates another snapshot into s, field by field. It walks the
// struct by reflection so a counter added to Metrics and Snapshot can never
// be silently dropped from aggregation again (harness and bench both sum
// per-client snapshots through this). All Snapshot fields must be uint64 —
// enforced by a test alongside the Metrics↔Snapshot name check.
func (s *Snapshot) Add(o Snapshot) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(sv.Field(i).Uint() + ov.Field(i).Uint())
	}
}

// Snapshot copies the current counter values. Like Add it walks the fields —
// each Snapshot field is loaded from the Metrics counter of the same name —
// so a counter added to both structs is copied without a line here. It runs
// per reporting interval, never per transaction.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	sv := reflect.ValueOf(&s).Elem()
	mv := reflect.ValueOf(m).Elem()
	for i := 0; i < sv.NumField(); i++ {
		c := mv.FieldByName(sv.Type().Field(i).Name).Addr().Interface().(*atomic.Uint64)
		sv.Field(i).SetUint(c.Load())
	}
	return s
}
