package main

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wal"
)

// buildLog writes a small durable log (snapshot via Checkpoint would need a
// server; a plain Append-and-Close is enough for the inspector).
func buildLog(t *testing.T, dir string) {
	t.Helper()
	log, _, err := wal.Open(dir, wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		rec := wal.Record{
			TxID:    "tx-a",
			Block:   i % 2,
			Key:     store.ID("acct", i%2),
			Version: uint64(i),
			Value:   store.Int64(int64(i)),
		}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWalSubcommandCleanLog(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir)

	var out strings.Builder
	if code := walMain([]string{"-records", dir}, &out); code != 0 {
		t.Fatalf("exit %d on a clean log\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{"5 records, crc ok", "acct/0", "acct/1", "max committed version"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestWalSubcommandTornTailExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir)
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code := walMain([]string{dir}, &out); code == 0 {
		t.Fatalf("exit 0 on a torn log\n%s", out.String())
	}
	if !strings.Contains(out.String(), "TORN TAIL") {
		t.Fatalf("torn tail not reported:\n%s", out.String())
	}
	// The intact prefix must still be counted and summarized.
	if !strings.Contains(out.String(), "4 records") {
		t.Fatalf("intact prefix not counted:\n%s", out.String())
	}
}

func TestWalSubcommandMissingPath(t *testing.T) {
	var out strings.Builder
	if code := walMain([]string{filepath.Join(t.TempDir(), "nope")}, &out); code == 0 {
		t.Fatal("exit 0 on missing path")
	}
}

// appendRawFrame appends one CRC-valid WAL frame carrying payload to path.
func appendRawFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := f.Write(append(frame[:], payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWalSubcommandReportsLegacyFormat puts a gob-format record and a
// gob-format snapshot — what a node on `-codec gob` wrote — into a log and
// checks the inspector names each with its path and offset and exits
// non-zero, still counting the binary prefix.
func TestWalSubcommandReportsLegacyFormat(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir)
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	var rec, snap bytes.Buffer
	if err := gob.NewEncoder(&rec).Encode(&wal.Record{TxID: "tx-gob", Key: store.ID("acct", 0), Version: 9, Value: store.Int64(1)}); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, last, rec.Bytes())
	if err := gob.NewEncoder(&snap).Encode(&struct{ Objects []store.WriteDesc }{
		[]store.WriteDesc{{ID: store.ID("acct", 0), Value: store.Int64(1), NewVersion: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snap-00000001.db")
	appendRawFrame(t, snapPath, snap.Bytes())

	var out strings.Builder
	if code := walMain([]string{"-records", dir}, &out); code == 0 {
		t.Fatalf("exit 0 on a log holding legacy-format files\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{
		fmt.Sprintf("5 records, LEGACY FORMAT: %v: %s at offset %d", wal.ErrLegacyFormat, last, info.Size()),
		fmt.Sprintf("UNREADABLE: %v: %s at offset 0", wal.ErrLegacyFormat, snapPath),
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "TORN TAIL") || strings.Contains(got, "tx-gob") {
		t.Fatalf("legacy record read or taken for a torn tail:\n%s", got)
	}
}

// TestWalSubcommandBadRecordExitsNonZero appends a CRC-VALID frame whose
// payload carries an out-of-range version byte: not a torn tail, but durably
// written garbage the integrity check must refuse.
func TestWalSubcommandBadRecordExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir)
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	appendRawFrame(t, segs[len(segs)-1], []byte{0x00, 0x7F, 'x'}) // binary marker, unknown version byte

	var out strings.Builder
	if code := walMain([]string{dir}, &out); code == 0 {
		t.Fatalf("exit 0 on a log with a bad record\n%s", out.String())
	}
	got := out.String()
	if !strings.Contains(got, "BAD RECORD") || strings.Contains(got, "TORN TAIL") {
		t.Fatalf("bad record not distinguished from torn tail:\n%s", got)
	}
	if !strings.Contains(got, "version byte 127") {
		t.Fatalf("reason not reported:\n%s", got)
	}
	// The intact prefix is still counted.
	if !strings.Contains(got, "5 records") {
		t.Fatalf("intact prefix not counted:\n%s", got)
	}
}

// TestWalSubcommandShardedParent points the inspector at a sharded
// cluster's WAL parent (shard-<s>/node-<id> subdirectories) and checks it
// reports every node's log plus a per-shard rollup with record counts and
// the in-doubt total, with -strict applying to the cross-shard sum.
func TestWalSubcommandShardedParent(t *testing.T) {
	root := t.TempDir()
	// Shard 0: two clean node logs. Shard 1: one node with a stranded vote.
	buildLog(t, filepath.Join(root, "shard-0", "node-0"))
	buildLog(t, filepath.Join(root, "shard-0", "node-1"))
	log, _, err := wal.Open(filepath.Join(root, "shard-1", "node-2"), wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(wal.Record{
		Type:   wal.RecordPrepare,
		TxID:   "stranded-tx",
		Writes: []store.WriteDesc{{ID: store.ID("acct", 0), Value: store.Int64(9), NewVersion: 2}},
		Quorum: []quorum.NodeID{0, 1, 2, 3, 4, 5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code := walMain([]string{root}, &out); code != 0 {
		t.Fatalf("exit %d on a clean sharded parent\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"shard-0/node-0:",
		"shard-0/node-1:",
		"shard-1/node-2:",
		"shard-0: 2 nodes, 10 records, 0 in doubt",
		"shard-1: 1 nodes, 1 records, 1 in doubt",
		"stranded-tx",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if code := walMain([]string{"-in-doubt", "-strict", root}, &out); code == 0 {
		t.Fatalf("-strict exited 0 with a stranded vote in shard 1\n%s", out.String())
	}
}

// TestWalSubcommandInDoubtReport writes a log holding one decided and one
// undecided 2PC vote and checks -in-doubt reports exactly the undecided one,
// with -strict turning it into a non-zero exit.
func TestWalSubcommandInDoubtReport(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	prep := func(tx string) wal.Record {
		return wal.Record{
			Type:    wal.RecordPrepare,
			TxID:    tx,
			Writes:  []store.WriteDesc{{ID: store.ID("acct", 0), Value: store.Int64(9), NewVersion: 2}},
			Release: []store.ObjectID{store.ID("acct", 0)},
			Quorum:  []quorum.NodeID{0, 1, 2},
		}
	}
	for _, rec := range []wal.Record{
		prep("decided-tx"),
		{Type: wal.RecordDecision, TxID: "decided-tx", Commit: true},
		prep("stranded-tx"),
	} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code := walMain([]string{"-in-doubt", "-records", dir}, &out); code != 0 {
		t.Fatalf("exit %d without -strict\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"in-doubt: 1 of 2 prepared transactions",
		"stranded-tx",
		"quorum=[0 1 2]",
		"prepare tx=decided-tx",
		"decision tx=decided-tx commit",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "  decided-tx ") {
		t.Fatalf("decided transaction listed as in doubt:\n%s", got)
	}

	out.Reset()
	if code := walMain([]string{"-in-doubt", "-strict", dir}, &out); code == 0 {
		t.Fatalf("-strict exited 0 with a stranded vote\n%s", out.String())
	}

	// A fully decided log is clean even under -strict.
	clean := t.TempDir()
	log2, _, err := wal.Open(clean, wal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.Append(prep("ok-tx")); err != nil {
		t.Fatal(err)
	}
	if err := log2.Append(wal.Record{Type: wal.RecordDecision, TxID: "ok-tx"}); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := walMain([]string{"-in-doubt", "-strict", clean}, &out); code != 0 {
		t.Fatalf("exit %d on a fully decided log\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "in-doubt: none (1 prepares, all decided)") {
		t.Fatalf("clean in-doubt summary missing:\n%s", out.String())
	}
}
