// Package wal implements a per-node, append-only, segmented write-ahead
// commit log with group commit, periodic snapshots, and crash recovery.
//
// The quorum-node commit path appends every applied write (object key,
// value, committed version, and the transaction/Block that produced it —
// dependency metadata in the style of dependency logging) to the log and
// waits for the record to be fsynced *before* acknowledging the decision
// round. Syncs are batched by a leader: an appender that finds no fsync in
// flight runs one at once, and everything staged while it runs shares the
// fsync that starts the moment it returns — batches grow with load, and a
// lone append costs one fsync. Records recovery can reconstruct without
// (AppendUnforced) are staged and left to the next sync.
//
// Recovery loads the newest CRC-valid snapshot, replays every later
// segment record in order (version-max semantics, matching Store.Apply's
// forward-only rule), truncates a torn tail on the final segment, and
// hands back the reconstructed object state. A node that replays before
// serving rejoins version-current without depending on read-repair.
//
// Records and snapshots have one encoding, the binary layout of
// binrecord.go. A directory written in the gob format that preceded it is
// refused with ErrLegacyFormat and left exactly as found.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/store"
)

// ErrClosed is returned by Append after Close or Crash.
var ErrClosed = errors.New("wal: log closed")

// errInjectedSyncFailure is the synthetic I/O error produced by
// SetSyncFailEvery (slow/failing-disk fault injection in tests).
var errInjectedSyncFailure = errors.New("wal: injected fsync failure")

// Options tunes a Log.
type Options struct {
	// FsyncInterval is the linger bound of unforced records: one staged by
	// AppendUnforced is on disk at most this long after (default 10ms),
	// sooner if any forced append syncs first. Forced appends never wait
	// for it.
	FsyncInterval time.Duration
	// SegmentSize is the roll threshold in bytes (default 4 MiB).
	SegmentSize int64
}

func (o *Options) fillDefaults() {
	if o.FsyncInterval == 0 {
		// Long enough that a log taking forced appends carries its unforced
		// records with them instead of paying an fsync of their own.
		o.FsyncInterval = 10 * time.Millisecond
	}
	if o.SegmentSize == 0 {
		o.SegmentSize = 4 << 20
	}
}

// Stats is a point-in-time copy of the log's counters.
type Stats struct {
	// Appends counts Append and AppendUnforced calls (one per commit
	// decision batch); Records counts individual records written.
	Appends uint64
	Records uint64
	// Fsyncs counts file syncs; Appends/Fsyncs is the group-commit
	// amortization factor. MaxBatch is the largest number of append calls
	// a single fsync covered.
	Fsyncs   uint64
	MaxBatch uint64
	// Snapshots counts checkpoints whose snapshot is in place;
	// SegmentsRemoved counts segment files deleted by compaction;
	// CheckpointFailures counts checkpoints that failed (one stopped by Close
	// or Crash is not a failure).
	Snapshots          uint64
	SegmentsRemoved    uint64
	CheckpointFailures uint64
	// ReplayedRecords and ReplayedSnapshot describe the last recovery:
	// log records replayed and objects loaded from the snapshot.
	ReplayedRecords  uint64
	ReplayedSnapshot uint64
	// TornTailTruncated reports whether recovery dropped a torn tail.
	TornTailTruncated bool
}

// Recovered is the object state reconstructed by Open.
type Recovered struct {
	// Objects holds the recovered value+version per object (NewVersion is
	// the object's version), ready for Store.Restore.
	Objects []store.WriteDesc
	// InDoubt lists prepare records with no matching decision record, in
	// replay order: transactions this node voted yes for whose outcome it
	// never durably learned. The server re-arms their protections and hands
	// them to the cooperative-termination resolver instead of trusting a
	// protection TTL.
	InDoubt []Record
	// Decided maps transaction ids from replayed decision records to their
	// outcome (true = commit), so a restarted node answers peer status
	// queries about recently decided transactions authoritatively.
	Decided map[string]bool
	// SnapshotObjects and LogRecords break down where the state came from.
	SnapshotObjects int
	LogRecords      int
	// TornTail reports that the final segment ended mid-record and was
	// truncated to its intact prefix.
	TornTail bool
}

// Log is one node's write-ahead commit log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu is the staging lock. It guards the fields below it and, whenever
	// syncing is false, the active segment (f, size, segIdx) and spare.
	mu      sync.Mutex
	buf     *bytes.Buffer // frames staged for the next fsync
	scratch []byte        // reusable binary record-frame staging buffer
	waiters []chan error  // forced appenders whose frames are in buf
	batch   uint64        // append calls whose frames are in buf
	closed  bool
	// syncing marks a leader between taking a batch and finishing its
	// fsync. The leader works outside mu (staging continues into buf) and
	// alone owns the active segment and spare until it clears the flag or
	// hands it, still set, to the first appender of the next batch. idle is
	// signalled when it clears; barriers counts the goroutines waiting for
	// that, and a leader that sees one does not hand off.
	syncing  bool
	idle     sync.Cond
	barriers int
	// linger is the pending FsyncInterval timer of the oldest unforced
	// record staged since the last one fired (nil: none pending).
	linger *time.Timer

	f      *os.File
	spare  *bytes.Buffer // the buffer buf swaps with; empty unless syncing
	size   int64         // bytes written to the active segment
	segIdx uint64        // active segment index

	// dirMu is held across each of a checkpoint's directory mutations (the
	// snapshot's temporary file, its rename, the compaction). Close and Crash
	// take it once after closing: one in progress finishes, and none starts
	// after they return.
	dirMu sync.Mutex
	// recsSinceCut counts records logged since the last checkpoint's cut, not
	// counting its carry-over; lastSnap is the size of the newest snapshot
	// (objects + carried records; at Open, the objects recovery loaded). The
	// two make the automatic trigger (CheckpointDue).
	recsSinceCut atomic.Uint64
	lastSnap     atomic.Uint64
	// ckHook is the test seam of SetCheckpointHook (nil in production).
	ckHook atomic.Pointer[func(CheckpointStep)]

	appends    atomic.Uint64
	records    atomic.Uint64
	fsyncs     atomic.Uint64
	maxBatch   atomic.Uint64
	snaps      atomic.Uint64
	removed    atomic.Uint64
	ckFailures atomic.Uint64

	// Slow-disk fault injection (tests only; both zero in production).
	// syncDelay stalls every fsync by the given nanoseconds — the shape of a
	// degrading disk: appends keep staging behind the slow flush, batches
	// grow and commit latency balloons without any call failing.
	// syncFailEvery makes every Nth fsync report an I/O error.
	syncDelay     atomic.Int64
	syncFailEvery atomic.Int64

	replayedRecords uint64
	replayedSnap    uint64
	tornTail        bool
}

// errLead is what a leader sends the first waiter of the next batch instead
// of a result: the sync is yours, syncing is still set.
var errLead = errors.New("wal: lead the next sync")

// Open opens (creating if necessary) the WAL in dir, runs recovery, and
// returns the log ready for appends plus the recovered object state.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:   dir,
		opts:  opts,
		buf:   new(bytes.Buffer),
		spare: new(bytes.Buffer),
	}
	l.idle.L = &l.mu
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openActiveSegment(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// recover loads the newest valid snapshot and replays later segments.
func (l *Log) recover() (*Recovered, error) {
	state := make(map[store.ObjectID]store.WriteDesc)
	apply := func(w store.WriteDesc) {
		if cur, ok := state[w.ID]; !ok || w.NewVersion > cur.NewVersion {
			state[w.ID] = w
		}
	}
	// 2PC state: a prepare with no later decision is in-doubt; decisions are
	// kept so peer status queries after restart can be answered.
	prepares := make(map[string]int) // TxID -> index into inDoubt
	var inDoubt []Record
	decided := make(map[string]bool)

	// Newest CRC-valid snapshot wins; corrupt ones (e.g. a crash between
	// temp-file write and rename never happens thanks to the rename, but a
	// disk error can still bit-rot a file) fall back to older snapshots. A
	// legacy-format snapshot is not corrupt: falling back past it would
	// silently drop the state it holds, so it stops recovery instead.
	var snapIdx uint64
	snapIdxs, err := listIndexed(l.dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	for i := len(snapIdxs) - 1; i >= 0; i-- {
		objs, err := ReadSnapshot(snapshotPath(l.dir, snapIdxs[i]))
		if errors.Is(err, ErrLegacyFormat) {
			return nil, err
		}
		if err != nil {
			continue
		}
		for _, w := range objs {
			apply(w)
		}
		snapIdx = snapIdxs[i]
		rec.SnapshotObjects = len(objs)
		break
	}

	segIdxs, err := listIndexed(l.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, err
	}
	for i, idx := range segIdxs {
		if idx < snapIdx {
			continue // fully covered by the snapshot; compaction leftovers
		}
		path := segmentPath(l.dir, idx)
		n, err := ScanSegment(path, func(r *Record, _ int64) error {
			switch r.Type {
			case RecordPrepare:
				// A prepare landing after its decision in the log (an append
				// that raced the decision) has a known outcome: it must not be
				// resurrected as in-doubt, or its protections would be
				// re-installed with nothing left to release them.
				if _, done := decided[r.TxID]; done {
					break
				}
				if _, dup := prepares[r.TxID]; !dup {
					prepares[r.TxID] = len(inDoubt)
					inDoubt = append(inDoubt, *r)
				}
			case RecordDecision:
				decided[r.TxID] = r.Commit
				if i, ok := prepares[r.TxID]; ok {
					inDoubt[i].TxID = "" // tombstone; filtered below
					delete(prepares, r.TxID)
				}
			default:
				apply(store.WriteDesc{ID: r.Key, Value: r.Value, NewVersion: r.Version, Block: r.Block})
			}
			return nil
		})
		rec.LogRecords += n
		if err != nil {
			// Crash mid-append on the final segment: keep the intact prefix,
			// drop the tail. A CRC-valid but malformed binary record there is
			// cut the same way, to stay available from the prefix. A legacy
			// record is neither: it matches no case and fails the open.
			end := int64(-1)
			var torn *TornTailError
			var bad *BadRecordError
			switch {
			case errors.As(err, &torn):
				end = torn.Offset
			case errors.As(err, &bad):
				end = bad.Offset
			}
			if end >= 0 && i == len(segIdxs)-1 {
				if terr := os.Truncate(path, end); terr != nil {
					return nil, terr
				}
				rec.TornTail = true
				break
			}
			if errors.Is(err, ErrLegacyFormat) {
				return nil, err
			}
			return nil, fmt.Errorf("wal: segment %s: %w", path, err)
		}
		l.segIdx = idx
	}
	if len(segIdxs) > 0 {
		l.segIdx = segIdxs[len(segIdxs)-1]
	}

	rec.Objects = make([]store.WriteDesc, 0, len(state))
	for _, w := range state {
		rec.Objects = append(rec.Objects, w)
	}
	for _, p := range inDoubt {
		if p.TxID != "" {
			rec.InDoubt = append(rec.InDoubt, p)
		}
	}
	if len(decided) > 0 {
		rec.Decided = decided
	}
	l.replayedRecords = uint64(rec.LogRecords)
	l.replayedSnap = uint64(rec.SnapshotObjects)
	l.lastSnap.Store(l.replayedSnap)
	l.tornTail = rec.TornTail
	return rec, nil
}

// openActiveSegment starts a fresh segment after recovery (never appends to
// a truncated file, so a second crash can only tear the new segment).
func (l *Log) openActiveSegment() error {
	l.segIdx++
	f, err := os.OpenFile(segmentPath(l.dir, l.segIdx), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size = 0
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:            l.appends.Load(),
		Records:            l.records.Load(),
		Fsyncs:             l.fsyncs.Load(),
		MaxBatch:           l.maxBatch.Load(),
		Snapshots:          l.snaps.Load(),
		SegmentsRemoved:    l.removed.Load(),
		CheckpointFailures: l.ckFailures.Load(),
		ReplayedRecords:    l.replayedRecords,
		ReplayedSnapshot:   l.replayedSnap,
		TornTailTruncated:  l.tornTail,
	}
}

// CheckpointDue reports whether an automatic checkpoint is due: the records
// logged since the last cut are at least the larger of floor and the size of
// the last snapshot. Checkpoint work per logged record is then bounded by a
// constant however large the store grows, and replay reads the carry-over
// plus less than one such threshold of records.
func (l *Log) CheckpointDue(floor uint64) bool {
	return l.recsSinceCut.Load() >= max(floor, l.lastSnap.Load())
}

// SetSyncDelay injects a stall of d into every subsequent fsync (0 clears
// it). Staging continues during the stall, so appends pile into the next
// batch exactly as they would behind a degrading disk. Test-only.
func (l *Log) SetSyncDelay(d time.Duration) { l.syncDelay.Store(int64(d)) }

// SetSyncFailEvery makes every Nth fsync report an injected I/O error to all
// appends in that batch (0 clears it). The data was still written and
// synced, modelling a disk that flushes but answers with errors — appenders
// must treat the batch as failed. Test-only.
func (l *Log) SetSyncFailEvery(n int64) { l.syncFailEvery.Store(n) }

// CheckpointStep names a point of FinishCheckpoint at which the hook of
// SetCheckpointHook runs.
type CheckpointStep int

const (
	// StepCut: the cut is taken, nothing of the checkpoint is written yet.
	StepCut CheckpointStep = iota
	// StepCarried: the carry-over is durable; no snapshot file exists yet.
	StepCarried
	// StepSnapshotWritten: the snapshot is written and synced under its
	// temporary name, not yet renamed into place.
	StepSnapshotWritten
	// StepRenamed: the snapshot is in place, the segments it covers are not
	// yet removed.
	StepRenamed
)

// SetCheckpointHook makes every later checkpoint call fn at each of its
// steps, in the checkpoint's goroutine (nil clears it). A hook that blocks
// holds the checkpoint there, with no lock of the log held, so a test can
// crash the log at that step. Test-only.
func (l *Log) SetCheckpointHook(fn func(CheckpointStep)) { l.ckHook.Store(&fn) }

func (l *Log) step(s CheckpointStep) {
	if fn := l.ckHook.Load(); fn != nil && *fn != nil {
		(*fn)(s)
	}
}

// Append durably logs one commit's records: it stages the frames, then
// blocks until an fsync covering them completes. On return the records
// survive any crash. Safe for concurrent use; appends that arrive while an
// fsync is in flight share the next one (group commit).
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	ch := make(chan error, 1)
	l.mu.Lock()
	if err := l.stageLocked(recs); err != nil {
		l.mu.Unlock()
		return err
	}
	return l.awaitSync(ch)
}

// appendCarry is Append for a checkpoint's carry-over. The records are
// framed before the staging lock is taken — they can be a whole
// decided-outcome memory, and no appender should wait while they are
// encoded — and they do not count toward the checkpoint trigger.
func (l *Log) appendCarry(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var frames []byte
	for i := range recs {
		var err error
		if frames, err = AppendRecordFrame(frames, &recs[i]); err != nil {
			return fmt.Errorf("wal: encode record: %w", err)
		}
	}
	ch := make(chan error, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.buf.Write(frames)
	l.countStagedLocked(len(recs))
	return l.awaitSync(ch)
}

// awaitSync queues ch for the fsync that covers what the caller has just
// staged, leads that fsync if none is in flight, and returns its result.
// Callers hold l.mu; awaitSync releases it.
func (l *Log) awaitSync(ch chan error) error {
	l.waiters = append(l.waiters, ch)
	if l.syncing {
		l.mu.Unlock()
		err := <-ch
		if err != errLead {
			return err
		}
		l.mu.Lock()
	}
	l.leadLocked()
	l.mu.Unlock()
	return <-ch
}

// AppendUnforced stages records without waiting for them to be durable: the
// next fsync covers them — any forced append's or Close's, or the log's own
// within FsyncInterval. A crash before that loses them, so it is only for
// records recovery reconstructs without (presumed-abort decisions,
// best-effort repair writes).
func (l *Log) AppendUnforced(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stageLocked(recs); err != nil {
		return err
	}
	if l.linger == nil {
		l.linger = time.AfterFunc(l.opts.FsyncInterval, l.lingerSync)
	}
	return nil
}

// lingerSync is the FsyncInterval timer: it syncs whatever is still only
// staged. Usually that is nothing — a forced append came by and took the
// unforced records with it.
func (l *Log) lingerSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.linger = nil
	if l.buf.Len() == 0 {
		return
	}
	l.quiesceLocked()
	if !l.closed {
		l.leadLocked()
	}
}

// stageLocked frames one append call's records into the staging buffer (all
// or none) and counts them toward the checkpoint trigger. It reuses a
// scratch buffer, so steady-state staging performs no per-record allocation.
// Callers hold l.mu.
func (l *Log) stageLocked(recs []Record) error {
	if l.closed {
		return ErrClosed
	}
	start := l.buf.Len()
	for i := range recs {
		frame, err := AppendRecordFrame(l.scratch[:0], &recs[i])
		if err != nil {
			l.buf.Truncate(start)
			return fmt.Errorf("wal: encode record: %w", err)
		}
		l.scratch = frame
		l.buf.Write(frame)
	}
	l.recsSinceCut.Add(uint64(len(recs)))
	l.countStagedLocked(len(recs))
	return nil
}

// countStagedLocked counts one append call of n records just staged.
// Callers hold l.mu.
func (l *Log) countStagedLocked(n int) {
	l.records.Add(uint64(n))
	l.appends.Add(1)
	l.batch++
}

// leadLocked runs one sync as leader: it takes everything staged, releases
// l.mu for the write and fsync so the next batch can stage meanwhile, and
// acks the batch's waiters. Then it hands the lead to the first appender
// that staged during the fsync — the next sync starts the moment this one
// returned — or, with none (or with a barrier waiting), goes idle. Callers
// hold l.mu and either found syncing clear or were handed it set.
func (l *Log) leadLocked() {
	l.syncing = true
	out, waiters, batch := l.buf, l.waiters, l.batch
	l.buf, l.waiters, l.batch = l.spare, nil, 0
	l.mu.Unlock()

	err := l.flush(out.Bytes(), batch)
	out.Reset()
	for _, ch := range waiters {
		ch <- err
	}

	l.mu.Lock()
	l.spare = out
	if len(l.waiters) > 0 && l.barriers == 0 {
		l.waiters[0] <- errLead
		return
	}
	l.syncing = false
	l.idle.Broadcast()
}

// quiesceLocked waits until no leader is mid-sync, so the caller owns the
// active segment for as long as it keeps l.mu. A leader that finishes while
// someone waits here does not hand off, so the wait is at most one fsync;
// appenders it leaves staged are the caller's to flush or fail. Callers hold
// l.mu.
func (l *Log) quiesceLocked() {
	l.barriers++
	for l.syncing {
		l.idle.Wait()
	}
	l.barriers--
}

// syncLocked flushes everything staged and acks its waiters without
// releasing l.mu. Callers hold l.mu and have quiesced.
func (l *Log) syncLocked() error {
	err := l.flush(l.buf.Bytes(), l.batch)
	l.buf.Reset()
	for _, ch := range l.waiters {
		ch <- err
	}
	l.waiters, l.batch = nil, 0
	return err
}

// flush writes one batch of frames to the active segment, fsyncs it, and
// rolls the segment if it crossed the size threshold. Callers own the
// active segment: the syncing leader, or a quiesced holder of l.mu.
func (l *Log) flush(frames []byte, batch uint64) error {
	if len(frames) == 0 {
		return nil
	}
	n, err := l.f.Write(frames)
	l.size += int64(n)
	if err != nil {
		return err
	}
	if d := l.syncDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d)) // injected slow disk
	}
	err = l.f.Sync()
	nth := l.fsyncs.Add(1)
	if every := l.syncFailEvery.Load(); err == nil && every > 0 && nth%uint64(every) == 0 {
		err = errInjectedSyncFailure
	}
	if batch > l.maxBatch.Load() {
		l.maxBatch.Store(batch)
	}
	if err == nil && l.size >= l.opts.SegmentSize {
		err = l.roll()
	}
	return err
}

// roll closes the active segment, already flushed and synced, and opens the
// next one. Callers own the active segment (see flush).
func (l *Log) roll() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openActiveSegment()
}

// Cut opens a checkpoint: it rolls to a fresh segment and returns its index
// N, so every record in a segment below N was logged before the call. The
// caller snapshots state reflecting at least those records (the server holds
// its commit lock exclusively across Cut) and passes it to FinishCheckpoint
// with N; checkpoints of one log must not overlap. Cut syncs only what forced
// appenders left staged (none under the server's lock): unforced records
// staged before it reach segment N with the next sync, which replay visits.
// The trigger count (CheckpointDue) restarts here, whatever the outcome.
func (l *Log) Cut() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recsSinceCut.Store(0)
	l.quiesceLocked()
	if l.closed {
		return 0, ErrClosed
	}
	if len(l.waiters) > 0 {
		if err := l.syncLocked(); err != nil {
			l.ckFailures.Add(1)
			return 0, err
		}
	}
	if l.size > 0 {
		if err := l.roll(); err != nil {
			l.ckFailures.Add(1)
			return 0, err
		}
	}
	return l.segIdx, nil
}

// FinishCheckpoint completes the checkpoint Cut opened at idx, with no lock
// of the log held and concurrently with appends: objs is the object state
// (every record below idx reflected in it), keep the records the snapshot
// does not capture (live in-doubt prepares, decided outcomes).
//
// Order is what makes it crash-safe. keep is appended first, through the
// ordinary group commit, into a segment at or above idx — replay visits
// those — while every old segment still exists; it does not count toward
// the next trigger. Then the snapshot is written (temp file, fsync, rename,
// directory fsync) as snap-idx, then the segments and snapshots it covers are
// removed. A crash at any point recovers from the old snapshot and segments
// or from the new ones; a carried prepare that lands after its own decision
// is ignored by recovery, and duplicates replay idempotently.
//
// Once Close or Crash has returned, the checkpoint creates, renames and
// removes nothing more in the directory (but its own temporary file) and
// returns ErrClosed.
func (l *Log) FinishCheckpoint(idx uint64, objs []store.WriteDesc, keep ...Record) error {
	err := l.finish(idx, objs, keep)
	if err != nil && !errors.Is(err, ErrClosed) {
		l.ckFailures.Add(1)
	}
	return err
}

func (l *Log) finish(idx uint64, objs []store.WriteDesc, keep []Record) error {
	l.step(StepCut)
	if err := l.appendCarry(keep); err != nil {
		return err
	}
	l.step(StepCarried)
	var tmp string
	if err := l.inDir(func() (err error) {
		tmp, err = writeSnapshotTemp(l.dir, objs)
		return err
	}); err != nil {
		return err
	}
	defer os.Remove(tmp) // gone already once renamed
	l.step(StepSnapshotWritten)
	if err := l.inDir(func() error {
		if err := os.Rename(tmp, snapshotPath(l.dir, idx)); err != nil {
			return err
		}
		return syncDir(l.dir)
	}); err != nil {
		return err
	}
	l.snaps.Add(1)
	l.lastSnap.Store(uint64(len(objs) + len(keep)))
	l.step(StepRenamed)
	return l.inDir(func() error {
		if segIdxs, err := listIndexed(l.dir, segmentPrefix, segmentSuffix); err == nil {
			for _, i := range segIdxs {
				if i < idx && os.Remove(segmentPath(l.dir, i)) == nil {
					l.removed.Add(1)
				}
			}
		}
		if snapIdxs, err := listIndexed(l.dir, snapshotPrefix, snapshotSuffix); err == nil {
			for _, i := range snapIdxs {
				if i < idx {
					_ = os.Remove(snapshotPath(l.dir, i))
				}
			}
		}
		return syncDir(l.dir)
	})
}

// inDir runs one directory mutation of a checkpoint unless the log is
// closed (see dirMu).
func (l *Log) inDir(mutate func() error) error {
	l.dirMu.Lock()
	defer l.dirMu.Unlock()
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return mutate()
}

// awaitDir waits out a checkpoint's directory mutation in progress. Callers
// have just closed the log, so none starts after.
func (l *Log) awaitDir() {
	l.dirMu.Lock()
	defer l.dirMu.Unlock()
}

// Checkpoint is Cut and FinishCheckpoint in one call, for a caller that
// appends nothing in between: objs must reflect every record logged before
// the call.
func (l *Log) Checkpoint(objs []store.WriteDesc, keep ...Record) error {
	idx, err := l.Cut()
	if err != nil {
		return err
	}
	return l.FinishCheckpoint(idx, objs, keep...)
}

// Close flushes, fsyncs, and closes the log. Pending appends complete, and
// staged unforced records reach the disk. A checkpoint in flight finishes the
// directory mutation it is in, if any (at most one snapshot write), and
// makes no other.
func (l *Log) Close() error {
	l.mu.Lock()
	l.quiesceLocked()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.awaitDir()
	return err
}

// Crash simulates a process crash: the log is abandoned WITHOUT flushing
// staged frames, so records not yet covered by an fsync are lost exactly as
// they would be on a real kill. An fsync already in flight completes (its
// appenders are acked: their bytes are on disk); every appender still only
// staged fails. A checkpoint in flight stops as under Close, so a log opened
// on the directory afterwards replays it undisturbed. Used by fault-injection
// harnesses.
func (l *Log) Crash() {
	l.mu.Lock()
	l.quiesceLocked()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	for _, ch := range l.waiters {
		ch <- ErrClosed
	}
	l.waiters = nil
	l.buf.Reset()
	_ = l.f.Close()
	l.mu.Unlock()
	l.awaitDir()
}
