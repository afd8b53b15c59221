package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/store"
)

// The tests in this file pin the leader-based group commit. None of them
// compares a duration against a threshold it could miss on a slow host: the
// injected fsync stall (SetSyncDelay) only ever has to be *longer* than it
// takes a few goroutines to stage a record, and every assertion is a count
// or a lower bound on elapsed time.

// never is a linger bound no test outlives: unforced records reach the disk
// only through someone else's sync.
const never = time.Hour

// waitFor polls cond; a test that needs more than ten seconds for a few
// goroutines to make progress is hung, not slow.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func reopen(t *testing.T, dir string) map[store.ObjectID]store.WriteDesc {
	t.Helper()
	l, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return stateOf(r)
}

// TestGroupCommitLoneAppendSyncsAtOnce: an appender that finds no sync in
// flight is the leader and syncs immediately — one fsync per lone append,
// whatever the linger bound is (the old design slept FsyncInterval first).
func TestGroupCommitLoneAppendSyncsAtOnce(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if err := l.Append(rec("k", uint64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
		if s := l.Stats(); s.Fsyncs != uint64(i) || s.MaxBatch != 1 {
			t.Fatalf("after %d lone appends: %d fsyncs, max batch %d; want one fsync each", i, s.Fsyncs, s.MaxBatch)
		}
	}
}

// TestGroupCommitLeaderCoversStagedBatch walks one hand-off by hand: every
// append staged while fsync k is in flight is acked by fsync k+1, which one
// of them leads, and the two never overlap.
func TestGroupCommitLeaderCoversStagedBatch(t *testing.T) {
	const delay = 100 * time.Millisecond
	l, _, err := Open(t.TempDir(), Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetSyncDelay(delay)

	start := time.Now()
	var wg sync.WaitGroup
	appendAsync := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Append(rec(fmt.Sprintf("k%d", i), 1, int64(i))); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}()
	}
	appendAsync(0) // leads fsync 1 alone
	waitFor(t, "the first append to stage", func() bool { return l.Stats().Appends == 1 })
	for i := 1; i <= 7; i++ {
		appendAsync(i) // stage while fsync 1 is stalled
	}
	waitFor(t, "seven appends to stage behind the stalled fsync", func() bool { return l.Stats().Appends == 8 })
	if f := l.Stats().Fsyncs; f != 0 {
		t.Fatalf("fsync 1 finished (%d fsyncs) before the batch was staged; the injected stall is too short for this host", f)
	}
	wg.Wait()

	s := l.Stats()
	if s.Fsyncs != 2 || s.MaxBatch != 7 {
		t.Fatalf("%d fsyncs, max batch %d; want 2 and 7: everything staged during fsync 1 shares fsync 2", s.Fsyncs, s.MaxBatch)
	}
	if el := time.Since(start); el < 2*delay {
		t.Fatalf("two stalled fsyncs finished in %v < %v: they overlapped", el, 2*delay)
	}
}

// TestGroupCommitBatchesGrowWithLoad: with 8 appenders behind a 1 ms fsync
// each sync covers what staged during the one before it, so appends per
// fsync is at least 4 (8 appenders, each acked by the sync after the one it
// staged behind) — and no window opens in which two fsyncs run at once.
func TestGroupCommitBatchesGrowWithLoad(t *testing.T) {
	const (
		appenders = 8
		delay     = time.Millisecond
		want      = 400
	)
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetSyncDelay(delay)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < appenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; !stop.Load(); i++ {
				if err := l.Append(rec(fmt.Sprintf("k%d", c), uint64(i), int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	// Measure with all eight running: skip the ramp-up, stop counting before
	// the first appender leaves.
	waitFor(t, "ramp-up", func() bool { return l.Stats().Appends >= 4*appenders })
	from, start := l.Stats(), time.Now()
	waitFor(t, "the measured appends", func() bool { return l.Stats().Appends >= from.Appends+want })
	to, elapsed := l.Stats(), time.Since(start)
	stop.Store(true)
	wg.Wait()

	appends, fsyncs := to.Appends-from.Appends, to.Fsyncs-from.Fsyncs
	t.Logf("%d appends, %d fsyncs (%.2f appends/fsync, max batch %d) in %v",
		appends, fsyncs, float64(appends)/float64(fsyncs), to.MaxBatch, elapsed)
	if appends < 4*fsyncs {
		t.Fatalf("%d appends over %d fsyncs: fewer than 4 per fsync at %d appenders", appends, fsyncs, appenders)
	}
	// fsyncs-1: the one in flight at `start` may have slept before it.
	if floor := time.Duration(fsyncs-1) * delay; elapsed < floor {
		t.Fatalf("%d fsyncs of >= %v each in %v: two were in flight at once", fsyncs, delay, elapsed)
	}
}

// TestCrashFailsStagedLeaderAcksSynced: a forced Append returns nil only
// after an fsync that covers its bytes. Crash the log between one append's
// stage and its sync: the appender whose fsync was in flight is acked and
// replays; the one that had only staged fails and its record is gone.
func TestCrashFailsStagedLeaderAcksSynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSyncDelay(100 * time.Millisecond)

	synced, staged := make(chan error, 1), make(chan error, 1)
	go func() { synced <- l.Append(rec("synced", 1, 1)) }()
	waitFor(t, "the leader to stage", func() bool { return l.Stats().Appends == 1 })
	go func() { staged <- l.Append(rec("staged", 1, 2)) }()
	waitFor(t, "the second append to stage", func() bool { return l.Stats().Appends == 2 })
	if err := l.AppendUnforced(rec("unforced", 1, 3)); err != nil {
		t.Fatal(err)
	}
	if f := l.Stats().Fsyncs; f != 0 {
		t.Fatalf("the stalled fsync finished (%d) before the crash was staged", f)
	}
	l.Crash()

	if err := <-synced; err != nil {
		t.Fatalf("append whose fsync completed: %v", err)
	}
	if err := <-staged; !errors.Is(err, ErrClosed) {
		t.Fatalf("append that never reached an fsync returned %v, want ErrClosed", err)
	}
	if f := l.Stats().Fsyncs; f != 1 {
		t.Fatalf("%d fsyncs, want 1: Crash must not sync what was only staged", f)
	}
	st := reopen(t, dir)
	if _, ok := st["synced"]; !ok {
		t.Fatal("acked record lost")
	}
	for _, key := range []store.ObjectID{"staged", "unforced"} {
		if _, ok := st[key]; ok {
			t.Fatalf("%s was never synced but replayed", key)
		}
	}
}

// TestUnforcedRidesNextSync: an unforced record costs no fsync of its own
// when a forced append follows; Close flushes one that nothing followed.
func TestUnforcedRidesNextSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendUnforced(rec("u1", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if f := l.Stats().Fsyncs; f != 0 {
		t.Fatalf("unforced append synced (%d fsyncs)", f)
	}
	if err := l.Append(rec("f", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Fsyncs != 1 || s.MaxBatch != 2 || s.Appends != 2 {
		t.Fatalf("stats %+v, want one fsync covering both appends", s)
	}
	if err := l.AppendUnforced(rec("u2", 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendUnforced(rec("late", 1, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("unforced append after Close returned %v", err)
	}
	st := reopen(t, dir)
	for _, key := range []store.ObjectID{"u1", "f", "u2"} {
		if _, ok := st[key]; !ok {
			t.Fatalf("%s lost (Close must flush staged unforced records)", key)
		}
	}
}

// TestUnforcedLingerBound: on an otherwise idle log an unforced record is
// synced by the log itself once FsyncInterval has passed, with nobody
// waiting for it.
func TestUnforcedLingerBound(t *testing.T) {
	dir := t.TempDir()
	const linger = 50 * time.Millisecond
	l, _, err := Open(dir, Options{FsyncInterval: linger})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.AppendUnforced(rec("u", 1, 1), rec("u", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendUnforced(rec("v", 1, 3)); err != nil { // same timer
		t.Fatal(err)
	}
	waitFor(t, "the linger sync", func() bool { return l.Stats().Fsyncs == 1 })
	if el := time.Since(start); el < linger {
		t.Fatalf("linger sync after %v, before the %v bound: it should wait for company", el, linger)
	}
	l.Crash() // whatever is on disk now got there by the linger sync
	st := reopen(t, dir)
	if st["u"].NewVersion != 2 || st["v"].NewVersion != 1 {
		t.Fatalf("recovered %+v, want u@2 and v@1", st)
	}
	if s := l.Stats(); s.Fsyncs != 1 || s.MaxBatch != 2 {
		t.Fatalf("stats %+v, want one fsync for both unforced appends", s)
	}
}

// TestCheckpointAndRollSerialiseWithLeader drives appenders, unforced
// records, segment rolls and checkpoints at once. The race detector is the
// assertion on the active segment's ownership; recovery is the assertion
// that no acked append fell between a leader's fsync and a checkpoint's
// compaction.
func TestCheckpointAndRollSerialiseWithLeader(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: time.Millisecond, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	const (
		appenders = 4
		per       = 60
	)
	var wg sync.WaitGroup
	for c := 0; c < appenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", c)
			for i := 1; i <= per; i++ {
				var err error
				if i%4 == 0 {
					err = l.AppendUnforced(rec(key, uint64(i), int64(i)))
				} else {
					err = l.Append(rec(key, uint64(i), int64(i)))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Empty snapshots: every record a checkpoint compacts away is lost to
	// replay, so only what is appended after the last one must survive —
	// checked with records appended once the checkpoints have stopped.
	for running := true; running; {
		if err := l.Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			running = false
		default:
		}
	}
	for c := 0; c < appenders; c++ {
		if err := l.Append(rec(fmt.Sprintf("k%d", c), per+1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.SegmentsRemoved == 0 {
		t.Fatalf("no segment was rolled and compacted (stats %+v)", s)
	}
	l.Crash()
	st := reopen(t, dir)
	for c := 0; c < appenders; c++ {
		if w := st[store.ObjectID(fmt.Sprintf("k%d", c))]; w.NewVersion != per+1 {
			t.Fatalf("k%d recovered at version %d, want %d", c, w.NewVersion, per+1)
		}
	}
}
