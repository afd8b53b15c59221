package wal

import (
	"errors"
	"testing"
	"time"
)

// TestSlowFsyncInjector checks the slow-disk knob: every fsync is stretched
// by the injected delay, appends keep succeeding (they just wait, piling into
// bigger group-commit batches like a real slow disk produces), and clearing
// the delay restores normal latency. Durability is unaffected: a recovery
// after a slow run replays every acked record.
func TestSlowFsyncInjector(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const delay = 20 * time.Millisecond
	l.SetSyncDelay(delay)
	start := time.Now()
	if err := l.Append(rec("s", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < delay {
		t.Fatalf("append under slow fsync took %v, want >= %v", el, delay)
	}

	l.SetSyncDelay(0)
	start = time.Now()
	if err := l.Append(rec("s", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("append after clearing delay took %v, injector not cleared", el)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := stateOf(r)["s"]; w.NewVersion != 2 {
		t.Fatalf("recovered s at version %d, want 2 (slow-disk appends were acked)", w.NewVersion)
	}
}

// TestSyncFailEveryInjector checks the failing-disk knob: every Nth fsync
// reports an error to the appends in that batch, other appends succeed, and
// the log stays usable afterwards. The injected failure models a disk that
// wrote the data but answered with an error — the caller must treat the
// batch as failed even though replay may surface it.
func TestSyncFailEveryInjector(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	l.SetSyncFailEvery(3)
	var failed, okCount int
	for i := 1; i <= 9; i++ {
		err := l.Append(rec("f", uint64(i), int64(i)))
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, errInjectedSyncFailure):
			failed++
		default:
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
	}
	if failed != 3 || okCount != 6 {
		t.Fatalf("failed=%d ok=%d, want every 3rd of 9 appends to fail", failed, okCount)
	}

	l.SetSyncFailEvery(0)
	if err := l.Append(rec("f", 10, 10)); err != nil {
		t.Fatalf("append after clearing injector: %v", err)
	}
}
