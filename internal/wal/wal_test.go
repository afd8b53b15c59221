package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qracn/internal/store"
)

func rec(key string, ver uint64, val int64) Record {
	return Record{
		TxID:    fmt.Sprintf("tx-%s-%d", key, ver),
		Block:   int(ver % 3),
		Key:     store.ObjectID(key),
		Version: ver,
		Value:   store.Int64(val),
	}
}

// stateOf collapses recovered objects into a map for assertions.
func stateOf(r *Recovered) map[store.ObjectID]store.WriteDesc {
	out := make(map[store.ObjectID]store.WriteDesc, len(r.Objects))
	for _, w := range r.Objects {
		out[w.ID] = w
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, r, err := Open(dir, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Objects) != 0 {
		t.Fatalf("fresh log recovered %d objects", len(r.Objects))
	}
	if err := l.Append(rec("a", 1, 10), rec("b", 1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("a", 2, 11)); err != nil {
		t.Fatal(err)
	}
	// A nil value (deleted object) must round-trip too.
	if err := l.Append(Record{TxID: "t3", Key: "c", Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stateOf(r2)
	if len(st) != 3 {
		t.Fatalf("recovered %d objects, want 3", len(st))
	}
	if w := st["a"]; w.NewVersion != 2 || store.AsInt64(w.Value) != 11 {
		t.Fatalf("a recovered as %+v", w)
	}
	if w := st["b"]; w.NewVersion != 1 || store.AsInt64(w.Value) != 20 {
		t.Fatalf("b recovered as %+v", w)
	}
	if w := st["c"]; w.NewVersion != 1 || w.Value != nil {
		t.Fatalf("c recovered as %+v", w)
	}
	if r2.LogRecords != 4 {
		t.Fatalf("replayed %d records, want 4", r2.LogRecords)
	}
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := l.Append(rec("x", uint64(i), int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint the state the records produced; later appends land in
	// segments after the snapshot.
	if err := l.Checkpoint([]store.WriteDesc{{ID: "x", Value: store.Int64(2000), NewVersion: 20}}); err != nil {
		t.Fatal(err)
	}
	for i := 21; i <= 25; i++ {
		if err := l.Append(rec("x", uint64(i), int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.SegmentsRemoved == 0 {
		t.Fatalf("compaction removed no segments (still have %d)", len(segs))
	}
	snaps, err := Snapshots(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v (err %v), want exactly 1", snaps, err)
	}

	_, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stateOf(r)
	if w := st["x"]; w.NewVersion != 25 || store.AsInt64(w.Value) != 2500 {
		t.Fatalf("x recovered as %+v, want version 25 value 2500", w)
	}
	if r.SnapshotObjects != 1 {
		t.Fatalf("snapshot contributed %d objects, want 1", r.SnapshotObjects)
	}
	// Only post-snapshot records replay.
	if r.LogRecords != 5 {
		t.Fatalf("replayed %d log records, want 5", r.LogRecords)
	}
}

// TestCrashKeepsAckedAppends: every Append that returned nil must survive a
// crash (no flush on the way down), because the server only acks a commit
// after Append returns.
func TestCrashKeepsAckedAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := l.Append(rec("k", uint64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash()
	if err := l.Append(rec("k", 11, 11)); err == nil {
		t.Fatal("append after crash succeeded")
	}

	_, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := stateOf(r)["k"]; w.NewVersion != 10 {
		t.Fatalf("recovered version %d, want 10", w.NewVersion)
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if err := l.Append(rec("r", uint64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments after rolls, got %d", len(segs))
	}
	_, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := stateOf(r)["r"]; w.NewVersion != 30 {
		t.Fatalf("recovered version %d, want 30", w.NewVersion)
	}
}

// TestTornWriteEveryOffset truncates a segment at every byte offset of its
// final record and checks recovery keeps every fully-synced commit before
// it and cleanly drops the torn tail (the issue's torn-write satellite).
func TestTornWriteEveryOffset(t *testing.T) {
	src := t.TempDir()
	l, _, err := Open(src, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 1; i <= n; i++ {
		if err := l.Append(rec(fmt.Sprintf("k%d", i), uint64(i), int64(i*7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(src)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly 1", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var lastStart int64
	if _, err := ScanSegment(segs[0], func(_ *Record, off int64) error {
		lastStart = off
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lastStart <= 0 || lastStart >= int64(len(data)) {
		t.Fatalf("bad last record offset %d (file %d bytes)", lastStart, len(data))
	}

	segName := filepath.Base(segs[0])
	for off := lastStart; off < int64(len(data)); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		lg.Close()
		if r.LogRecords != n-1 {
			t.Fatalf("offset %d: replayed %d records, want %d", off, r.LogRecords, n-1)
		}
		st := stateOf(r)
		for i := 1; i < n; i++ {
			key := store.ObjectID(fmt.Sprintf("k%d", i))
			w, ok := st[key]
			if !ok || w.NewVersion != uint64(i) || store.AsInt64(w.Value) != int64(i*7) {
				t.Fatalf("offset %d: synced record %s lost or wrong: %+v", off, key, w)
			}
		}
		if _, torn := st[store.ObjectID(fmt.Sprintf("k%d", n))]; torn {
			t.Fatalf("offset %d: torn record survived", off)
		}
		wantTorn := off > lastStart
		if r.TornTail != wantTorn {
			t.Fatalf("offset %d: TornTail = %v, want %v", off, r.TornTail, wantTorn)
		}
		// The truncated file must now scan cleanly (tail removed on disk).
		if _, err := ScanSegment(filepath.Join(dir, segName), nil); err != nil {
			t.Fatalf("offset %d: segment still torn after recovery: %v", off, err)
		}
	}
}

// TestCorruptMiddleSegmentRefused: a torn frame in a non-final segment is
// corruption, not a crash artifact, and recovery must refuse it rather than
// silently skip committed records.
func TestCorruptMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if err := l.Append(rec("m", uint64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("recovery accepted a corrupt non-final segment")
	}
}
