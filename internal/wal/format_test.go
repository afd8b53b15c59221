package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// formatFixture exercises every value tag the binary layout knows plus the
// nil (deleted-object) case.
func formatFixture() []Record {
	return []Record{
		{TxID: "tx-1", Block: 0, Key: "acct/1", Version: 3, Value: store.Int64(-42)},
		{TxID: "tx-1", Block: 2, Key: "acct/2", Version: 1, Value: store.String("carol")},
		{TxID: "tx-2", Block: 1, Key: "blob/9", Version: 7, Value: store.Bytes{0x00, 0xFF, 0x10}},
		{TxID: "tx-2", Block: -1, Key: "rate/x", Version: 2, Value: store.Float64(2.5)},
		{TxID: "tx-3", Block: 4, Key: "row/8", Version: 11,
			Value: store.Tuple{store.Int64(1), store.String("nested"), store.Tuple{store.Float64(9)}}},
		{TxID: "tx-4", Block: 0, Key: "gone/3", Version: 5, Value: nil},
	}
}

// encoding/gob wrote records and snapshot bodies before the binary layout
// did. It stays here, in tests only, as the reference the binary record
// codec is compared against and as the source of legacy-format files.

func gobPayload(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobRoundTrip is the oracle's reading of rec.
func gobRoundTrip(t *testing.T, rec Record) Record {
	t.Helper()
	var ref Record
	if err := gob.NewDecoder(bytes.NewReader(gobPayload(t, &rec))).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// gobSnapshotBody is the legacy snapshot payload's shape.
type gobSnapshotBody struct{ Objects []store.WriteDesc }

// TestRecordsRoundTrip appends the fixture and checks that a scan returns
// the records exactly, that each decodes to what the gob oracle makes of the
// same record, and that recovery reconstructs the state.
func TestRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	recs := formatFixture()
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	var scanned []Record
	n, err := ScanSegment(segs[0], func(r *Record, _ int64) error {
		scanned = append(scanned, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("scanned %d records, want %d", n, len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(scanned[i], recs[i]) {
			t.Errorf("record %d: got %+v want %+v", i, scanned[i], recs[i])
		}
		if ref := gobRoundTrip(t, recs[i]); !reflect.DeepEqual(scanned[i], ref) {
			t.Errorf("record %d: binary %+v, gob oracle %+v", i, scanned[i], ref)
		}
	}

	_, r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stateOf(r2)
	if len(st) != len(recs) {
		t.Fatalf("recovered %d objects, want %d", len(st), len(recs))
	}
	for _, want := range recs {
		got := st[want.Key]
		if got.NewVersion != want.Version || !reflect.DeepEqual(got.Value, want.Value) {
			t.Errorf("%s recovered as %+v, want version %d value %v",
				want.Key, got, want.Version, want.Value)
		}
	}
}

// parentDir is a WAL directory written with default options by the commit
// before gob left production (PR 12): a write of acct/1, a checkpoint that
// compacted it into the snapshot, then a write of acct/2, a prepare and
// commit decision for tx-A, and a prepare for tx-B with no decision.
var parentDir = map[string]string{ // each line: frame header (length, CRC-32C) + payload
	"snap-00000002.db": "0000000f6165feae" + "00010106616363742f3101c8010100",
	"wal-00000002.log": "" +
		"0000001776b3a0df" + "00010474782d320206616363742f32030502010e030178" +
		"0000002d1ac15de8" + "0002010474782d4100000000000106616363742f3101b40102000206616363742f3106616363742f3303000206" +
		"000000101dcf28f3" + "0002020474782d410000000001000000" +
		"0000002b2a873047" + "0002010474782d4200000000000106616363742f3202000000000000f83f04040106616363742f32020004",
}

// TestParentWrittenDirectoryRecovers pins the surviving disk format byte for
// byte: the parent's files recover to the same objects, in-doubt set and
// decided map they did there.
func TestParentWrittenDirectoryRecovers(t *testing.T) {
	dir := t.TempDir()
	for name, hexBytes := range parentDir {
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	wantObjs := map[store.ObjectID]store.WriteDesc{
		"acct/1": {ID: "acct/1", Value: store.Int64(100), NewVersion: 1},
		"acct/2": {ID: "acct/2", Value: store.Tuple{store.Int64(7), store.String("x")}, NewVersion: 3, Block: 1},
	}
	if got := stateOf(r); !reflect.DeepEqual(got, wantObjs) {
		t.Errorf("objects = %+v, want %+v", got, wantObjs)
	}
	wantDoubt := []Record{{
		Type: RecordPrepare, TxID: "tx-B",
		Writes:  []store.WriteDesc{{ID: "acct/2", Value: store.Float64(1.5), NewVersion: 4, Block: 2}},
		Release: []store.ObjectID{"acct/2"}, Quorum: []quorum.NodeID{0, 2},
	}}
	if !reflect.DeepEqual(r.InDoubt, wantDoubt) {
		t.Errorf("in doubt = %+v, want %+v", r.InDoubt, wantDoubt)
	}
	if want := map[string]bool{"tx-A": true}; !reflect.DeepEqual(r.Decided, want) {
		t.Errorf("decided = %v, want %v", r.Decided, want)
	}
	if r.SnapshotObjects != 1 || r.LogRecords != 4 || r.TornTail {
		t.Errorf("recovered %d snapshot objects, %d records, torn=%v; want 1, 4, false",
			r.SnapshotObjects, r.LogRecords, r.TornTail)
	}

	// What this build writes for the same records is what the parent wrote.
	var again []byte
	for _, rec := range []Record{
		{TxID: "tx-2", Block: 1, Key: "acct/2", Version: 3, Value: store.Tuple{store.Int64(7), store.String("x")}},
		{Type: RecordPrepare, TxID: "tx-A",
			Writes:  []store.WriteDesc{{ID: "acct/1", Value: store.Int64(90), NewVersion: 2}},
			Release: []store.ObjectID{"acct/1", "acct/3"}, Quorum: []quorum.NodeID{0, 1, 3}},
		{Type: RecordDecision, TxID: "tx-A", Commit: true},
		wantDoubt[0],
	} {
		rec := rec
		if again, err = AppendRecordFrame(again, &rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(again); got != parentDir["wal-00000002.log"] {
		t.Errorf("segment bytes changed:\n got %s\nwant %s", got, parentDir["wal-00000002.log"])
	}
	body, err := appendSnapshotBody(nil, []store.WriteDesc{wantObjs["acct/1"]})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := writeFrame(&snap, body); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(snap.Bytes()); got != parentDir["snap-00000002.db"] {
		t.Errorf("snapshot bytes changed:\n got %s\nwant %s", got, parentDir["snap-00000002.db"])
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestOpenRefusesLegacyFormat: a directory holding gob-format records or a
// gob-format snapshot — what `-codec gob` wrote — is refused with
// ErrLegacyFormat, naming the file and offset, and is left byte-identical.
// Before the refusal existed the undecodable record counted as a torn tail
// and the snapshot as corrupt, so Open truncated the one and skipped the
// other.
func TestOpenRefusesLegacyFormat(t *testing.T) {
	gobRec := func(t *testing.T, r Record) []byte { return gobPayload(t, &r) }
	binFrame := func(t *testing.T, r Record) []byte {
		frame, err := AppendRecordFrame(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T, dir string)
		file   string
		offset int64
	}{
		{"gob segment", func(t *testing.T, dir string) {
			writeRawFrame(t, segmentPath(dir, 1), gobRec(t, rec("a", 1, 10)))
			writeRawFrame(t, segmentPath(dir, 1), gobRec(t, rec("b", 1, 20)))
		}, "wal-00000001.log", 0},
		{"gob snapshot", func(t *testing.T, dir string) {
			writeRawFrame(t, snapshotPath(dir, 2), gobPayload(t, &gobSnapshotBody{
				Objects: []store.WriteDesc{{ID: "a", Value: store.Int64(10), NewVersion: 1}},
			}))
			if err := os.WriteFile(segmentPath(dir, 2), binFrame(t, rec("b", 2, 21)), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "snap-00000002.db", 0},
		{"gob record in the final segment, then a torn tail", func(t *testing.T, dir string) {
			first := binFrame(t, rec("a", 1, 10))
			if err := os.WriteFile(segmentPath(dir, 1), first, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segmentPath(dir, 2), first, 0o644); err != nil {
				t.Fatal(err)
			}
			writeRawFrame(t, segmentPath(dir, 2), gobRec(t, rec("b", 1, 20)))
			f, err := os.OpenFile(segmentPath(dir, 2), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(first[:len(first)-3]); err != nil {
				t.Fatal(err)
			}
		}, "wal-00000002.log", int64(len(binFrame(t, rec("a", 1, 10))))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			before := readDir(t, dir)

			l, _, err := Open(dir, Options{})
			if err == nil {
				l.Close()
				t.Fatal("Open accepted a legacy-format directory")
			}
			if !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("err = %v, want ErrLegacyFormat", err)
			}
			where := fmt.Sprintf("%s at offset %d", filepath.Join(dir, tc.file), tc.offset)
			if !strings.Contains(err.Error(), where) {
				t.Errorf("err = %q, want it to name %q", err, where)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("Open modified the directory:\n before %v\n after  %v", fileSizes(before), fileSizes(after))
			}
		})
	}
}

func fileSizes(files map[string][]byte) map[string]int {
	out := make(map[string]int, len(files))
	for name, b := range files {
		out[name] = len(b)
	}
	return out
}

// writeRawFrame appends one CRC-valid frame with the given payload to path.
func writeRawFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32Sum(payload))
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
}

// TestBadRecordDistinguishedFromTornTail: a CRC-valid frame that carries the
// binary marker but an out-of-range version byte is a BadRecordError under
// ScanSegment (inspection must fail loudly), while recovery cuts the final
// segment there like a torn tail and keeps the intact prefix.
func TestBadRecordDistinguishedFromTornTail(t *testing.T) {
	good, err := AppendRecordFrame(nil, &Record{TxID: "t", Key: "k", Version: 1, Value: store.Int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		{binMarker, 0x7F, 'x'}, // future/invalid version byte
		{binMarker},            // truncated before version byte
	} {
		dir := t.TempDir()
		path := segmentPath(dir, 1)
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		writeRawFrame(t, path, bad)

		var badErr *BadRecordError
		n, err := ScanSegment(path, nil)
		if !errors.As(err, &badErr) {
			t.Fatalf("payload %x: ScanSegment err = %v, want BadRecordError", bad, err)
		}
		if n != 1 {
			t.Fatalf("payload %x: %d intact records before bad one, want 1", bad, n)
		}
		if badErr.Offset != int64(len(good)) {
			t.Fatalf("payload %x: bad offset %d, want %d", bad, badErr.Offset, len(good))
		}

		l, r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("payload %x: Open: %v", bad, err)
		}
		l.Close()
		if r.LogRecords != 1 || !r.TornTail {
			t.Fatalf("payload %x: recovered %d records, torn=%v; want the 1-record prefix", bad, r.LogRecords, r.TornTail)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
			t.Fatalf("payload %x: segment is %d bytes after recovery, want %d", bad, fi.Size(), len(good))
		}
	}
}

// TestRecordEncodeAllocs pins the binary append path at zero allocations per
// record once the scratch buffer is warm — the property that lets the WAL
// hot path stage records without garbage.
func TestRecordEncodeAllocs(t *testing.T) {
	r := rec("acct/warm", 9, 1234)
	buf, err := AppendRecordFrame(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendRecordFrame(buf[:0], &r)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("binary record encode: %v allocs/op, want 0", allocs)
	}
}

func benchRecord() Record {
	return Record{
		TxID:    "tx-ycsb-000042-7",
		Block:   3,
		Key:     "usertable/row-00001234",
		Version: 98765,
		Value:   store.String("field0=AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
	}
}

func BenchmarkRecordEncodeBinary(b *testing.B) {
	r := benchRecord()
	buf, err := AppendRecordFrame(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendRecordFrame(buf[:0], &r)
	}
	_ = buf
}

func BenchmarkRecordDecodeBinary(b *testing.B) {
	r := benchRecord()
	frame, err := AppendRecordFrame(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[8:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRecordPayload(payload); err != nil {
			b.Fatal(err)
		}
	}
}
