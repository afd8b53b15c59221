package wal

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"qracn/internal/store"
)

// TestCheckpointTriggerCountsExactly scripts a record stream against a store
// of ten objects and a carry-over of two records: the first checkpoint is due
// at the floor (no snapshot yet), every later one after as many records as
// the last snapshot held, and the carry-over a checkpoint appends counts
// toward nothing. A reopened log takes its first threshold from the snapshot
// recovery loaded.
func TestCheckpointTriggerCountsExactly(t *testing.T) {
	const floor = 4
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]store.WriteDesc, 10)
	for i := range objs {
		objs[i] = store.WriteDesc{ID: store.ObjectID(fmt.Sprintf("o%d", i)), Value: store.Int64(int64(i)), NewVersion: 1}
	}
	keep := []Record{prepareRec("tx-live"), decisionRec("tx-done", true)}
	var taken []int
	for i := 1; i <= 100; i++ {
		if err := l.Append(rec("k", uint64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
		if l.CheckpointDue(floor) {
			if err := l.Checkpoint(objs, keep...); err != nil {
				t.Fatal(err)
			}
			taken = append(taken, i)
		}
	}
	if want := []int{4, 16, 28, 40, 52, 64, 76, 88, 100}; !reflect.DeepEqual(taken, want) {
		t.Fatalf("checkpoints after records %v, want %v (floor 4, then every 10 objects + 2 carried)", taken, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, _, err = Open(dir, Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 10; i++ {
		if due := l.CheckpointDue(floor); due {
			t.Fatalf("reopened log due after %d records, want 10 (the recovered snapshot's objects)", i-1)
		}
		if err := l.Append(rec("k", uint64(100+i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if !l.CheckpointDue(floor) {
		t.Fatal("reopened log not due after 10 records")
	}
}

// TestCloseStopsCheckpointInFlight: a checkpoint held between writing its
// snapshot and renaming it, across a Close, renames and removes nothing once
// it resumes, reports ErrClosed and counts no failure.
func TestCloseStopsCheckpointInFlight(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: never})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("k", 1, 1)); err != nil {
		t.Fatal(err)
	}
	reached, release := make(chan struct{}), make(chan struct{})
	l.SetCheckpointHook(func(s CheckpointStep) {
		if s == StepSnapshotWritten {
			close(reached)
			<-release
		}
	})
	idx, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- l.FinishCheckpoint(idx, []store.WriteDesc{{ID: "k", Value: store.Int64(1), NewVersion: 1}})
	}()
	<-reached
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := listing(t, dir)
	close(release)
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint resumed after Close returned %v, want ErrClosed", err)
	}
	if after := listing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("directory changed after Close: %v → %v", before, after)
	}
	if s := l.Stats(); s.Snapshots != 0 || s.SegmentsRemoved != 0 || s.CheckpointFailures != 0 {
		t.Fatalf("stats %+v, want no snapshot, no removal, no failure", s)
	}
}

// listing names the snapshots and segments in dir (temporary files aside).
func listing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	return names
}
