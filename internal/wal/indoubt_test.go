package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

func prepareRec(txid string) Record {
	return Record{
		Type: RecordPrepare,
		TxID: txid,
		Writes: []store.WriteDesc{
			{ID: "acct/1", Value: store.Int64(97), NewVersion: 4, Block: 1},
			{ID: "acct/2", Value: store.Int64(103), NewVersion: 9, Block: 1},
		},
		Release: []store.ObjectID{"acct/1", "acct/2", "acct/3"},
		Quorum:  []quorum.NodeID{0, 2, 5, 9},
	}
}

func decisionRec(txid string, commit bool) Record {
	return Record{Type: RecordDecision, TxID: txid, Commit: commit}
}

// TestPrepareDecisionRecordsRoundTrip pins the v2 binary layout: prepare and
// decision records survive an encode/decode cycle with every 2PC field
// intact, and decode to what the gob oracle makes of the same record.
func TestPrepareDecisionRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		prepareRec("c1-t1-a0"),
		decisionRec("c1-t1-a0", true),
		prepareRec("c1-t2-a0"),
		decisionRec("c1-t2-a0", false),
	}
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v)", segs, err)
	}
	var got []Record
	if _, err := ScanSegment(segs[0], func(r *Record, _ int64) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records mutated:\n got %+v\nwant %+v", got, want)
	}
	for i := range want {
		if ref := gobRoundTrip(t, want[i]); !reflect.DeepEqual(got[i], ref) {
			t.Errorf("record %d: binary %+v, gob oracle %+v", i, got[i], ref)
		}
	}
}

// TestRecoveryRebuildsInDoubtTable: prepares without decisions surface in
// Recovered.InDoubt; decided transactions do not, and their outcomes land in
// Recovered.Decided.
func TestRecoveryRebuildsInDoubtTable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		prepareRec("tx-committed"),
		decisionRec("tx-committed", true),
		prepareRec("tx-aborted"),
		decisionRec("tx-aborted", false),
		prepareRec("tx-in-doubt"),
		rec("k1", 1, 11), // plain write mixed in
	}
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(r.InDoubt) != 1 || r.InDoubt[0].TxID != "tx-in-doubt" {
		t.Fatalf("InDoubt = %+v, want exactly tx-in-doubt", r.InDoubt)
	}
	if got := prepareRec("tx-in-doubt"); !reflect.DeepEqual(r.InDoubt[0], got) {
		t.Fatalf("in-doubt prepare mutated:\n got %+v\nwant %+v", r.InDoubt[0], got)
	}
	want := map[string]bool{"tx-committed": true, "tx-aborted": false}
	if !reflect.DeepEqual(r.Decided, want) {
		t.Fatalf("Decided = %v, want %v", r.Decided, want)
	}
	if st := stateOf(r); store.AsInt64(st["k1"].Value) != 11 {
		t.Fatalf("plain write lost: %+v", st["k1"])
	}
}

// TestCheckpointCarriesPromisesAcrossCompactionCrash pins the atomicity of
// checkpoint carry-over: records passed as keep must be durable in the fresh
// segment before compaction removes the old ones, so a crash at the very
// first instant after Checkpoint returns (or anywhere inside it) still
// recovers every live promise — the in-doubt prepare AND the decided
// outcome, neither of which the snapshot's object state captures.
func TestCheckpointCarriesPromisesAcrossCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(
		prepareRec("tx-live"),
		prepareRec("tx-done"),
		decisionRec("tx-done", true),
		rec("k1", 1, 11),
	); err != nil {
		t.Fatal(err)
	}
	objs := []store.WriteDesc{{ID: "k1", Value: store.Int64(11), NewVersion: 1}}
	if err := l.Checkpoint(objs, prepareRec("tx-live"), decisionRec("tx-done", true)); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().SegmentsRemoved; got == 0 {
		t.Fatal("checkpoint compacted no segments; the crash window under test never opened")
	}
	// Crash with nothing appended since: whatever Checkpoint made durable is
	// all that survives.
	l.Crash()

	l2, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(r.InDoubt) != 1 || r.InDoubt[0].TxID != "tx-live" {
		t.Fatalf("InDoubt = %+v, want exactly tx-live (compaction dropped the promise)", r.InDoubt)
	}
	if r.Decided["tx-done"] != true {
		t.Fatalf("Decided = %v, want tx-done: true (compaction dropped the outcome)", r.Decided)
	}
	if st := stateOf(r); store.AsInt64(st["k1"].Value) != 11 {
		t.Fatalf("snapshot state lost: %+v", st["k1"])
	}
}

// TestRecoveryIgnoresPrepareAfterDecision: a prepare record that lands in the
// log after its own decision (an append that raced the decision) must not be
// resurrected as in-doubt — its outcome is known, and re-arming it would
// install protections nothing will ever release.
func TestRecoveryIgnoresPrepareAfterDecision(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(decisionRec("tx-reordered", true), prepareRec("tx-reordered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(r.InDoubt) != 0 {
		t.Fatalf("InDoubt = %+v, want empty: the decision preceding the prepare is authoritative", r.InDoubt)
	}
	if r.Decided["tx-reordered"] != true {
		t.Fatalf("Decided = %v, want tx-reordered: true", r.Decided)
	}
}

// TestTornTailAcrossPrepareDecisionBoundary truncates the log at EVERY byte
// offset spanning a prepare/decision record pair and checks the in-doubt
// table recovery derives is exactly what the durable prefix implies: a torn
// prepare never surfaces (it was never acked, so the participant never voted
// yes), and a torn decision leaves its transaction in-doubt rather than
// half-resolved.
func TestTornTailAcrossPrepareDecisionBoundary(t *testing.T) {
	src := t.TempDir()
	l, _, err := Open(src, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// One already-resolved pair for ballast, then the pair under test.
	if err := l.Append(prepareRec("tx-old"), decisionRec("tx-old", true)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(prepareRec("tx-torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(decisionRec("tx-torn", true)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(src)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Record frame start offsets: [prep-old, dec-old, prep-torn, dec-torn].
	var starts []int64
	if _, err := ScanSegment(segs[0], func(_ *Record, off int64) error {
		starts = append(starts, off)
		return nil
	}); err != nil || len(starts) != 4 {
		t.Fatalf("starts = %v (err %v), want 4 records", starts, err)
	}
	prepStart, decStart := starts[2], starts[3]

	segName := filepath.Base(segs[0])
	for off := prepStart; off <= int64(len(data)); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		lg.Close()

		inDoubt := map[string]bool{}
		for _, p := range r.InDoubt {
			inDoubt[p.TxID] = true
		}
		if inDoubt["tx-old"] {
			t.Fatalf("offset %d: resolved tx-old resurfaced in-doubt", off)
		}
		if r.Decided["tx-old"] != true {
			t.Fatalf("offset %d: tx-old decision lost", off)
		}
		prepIntact := off >= decStart
		decIntact := off >= int64(len(data))
		switch {
		case !prepIntact:
			// Prepare torn: the vote was never made durable, so the
			// transaction must not appear at all.
			if inDoubt["tx-torn"] {
				t.Fatalf("offset %d: torn prepare surfaced in-doubt", off)
			}
			if _, ok := r.Decided["tx-torn"]; ok {
				t.Fatalf("offset %d: torn prepare surfaced as decided", off)
			}
		case !decIntact:
			// Prepare durable, decision torn: exactly in-doubt.
			if !inDoubt["tx-torn"] {
				t.Fatalf("offset %d: prepared tx not in-doubt", off)
			}
			if _, ok := r.Decided["tx-torn"]; ok {
				t.Fatalf("offset %d: torn decision surfaced as decided", off)
			}
		default:
			if inDoubt["tx-torn"] {
				t.Fatalf("offset %d: decided tx still in-doubt", off)
			}
			if r.Decided["tx-torn"] != true {
				t.Fatalf("offset %d: decision lost", off)
			}
		}
		wantTorn := off > prepStart && off != decStart && off != int64(len(data))
		if r.TornTail != wantTorn {
			t.Fatalf("offset %d: TornTail = %v, want %v", off, r.TornTail, wantTorn)
		}
	}
}
