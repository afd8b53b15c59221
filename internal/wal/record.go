package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// RecordType discriminates the durable record flavors. The zero value is a
// plain object write, so every binary v1 record — which predates the type
// byte — decodes as RecordWrite without migration.
type RecordType int

const (
	// RecordWrite is one committed object write (the original record shape).
	RecordWrite RecordType = iota
	// RecordPrepare is a participant's durable yes-vote for a two-phase
	// commit: the transaction id, its full write set, the protections to
	// release, and the write-quorum membership. It is fsynced BEFORE the
	// participant votes yes, so a crash-restarted replica knows exactly
	// which transactions it promised to honor and which peers can resolve
	// them.
	RecordPrepare
	// RecordDecision is the transaction outcome (commit or abort), logged
	// before the writes are applied and the protections released. A prepare
	// with no matching decision in the log IS the in-doubt set at recovery.
	RecordDecision
)

func (t RecordType) String() string {
	switch t {
	case RecordPrepare:
		return "prepare"
	case RecordDecision:
		return "decision"
	default:
		return "write"
	}
}

// Record is one durable commit entry. For RecordWrite it is a single object
// write together with the dependency metadata the paper's recovery argument
// needs — the transaction that produced it and the ACN Block
// (sub-transaction) index inside that transaction. Replay only needs
// (Key, Value, Version), but the (TxID, Block) pair lets a future
// parallel-replay pass partition the log by dependency the way dependency
// logging does. RecordPrepare and RecordDecision reuse the struct with the
// 2PC fields below populated instead of the single-write fields.
type Record struct {
	Type    RecordType
	TxID    string
	Block   int
	Key     store.ObjectID
	Version uint64
	Value   store.Value

	// Prepare-record payload: the promised write set, the protections the
	// decision must release, and the write quorum the coordinator selected
	// (the peers cooperative termination interrogates). No protection mode
	// is recorded: recovery re-takes a Release entry exclusively when it is
	// also in Writes and shared otherwise, so a read-only participant
	// (Writes empty) and a log from before the modes both replay as is.
	Writes  []store.WriteDesc
	Release []store.ObjectID
	Quorum  []quorum.NodeID
	// Decision-record payload.
	Commit bool
}

// castagnoli is the CRC-32C table used for record and snapshot framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32Sum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// MaxRecordSize bounds one record's encoded payload; a length field above it
// is treated as corruption rather than an allocation request.
const MaxRecordSize = 64 << 20

// TornTailError reports a segment whose final bytes do not form a complete,
// CRC-valid record — the classic torn write of a crash mid-append. Offset is
// the file position after the last intact record; everything before it is
// trustworthy.
type TornTailError struct {
	Path   string
	Offset int64
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("wal: torn tail in %s after offset %d", e.Path, e.Offset)
}

// Frame layout, shared by log records and the snapshot body:
//
//	4B big-endian payload length | 4B big-endian CRC-32C(payload) | payload
//
// The CRC covers only the payload; a bit flip in the length field surfaces
// as a short read or a CRC mismatch, both classified as a torn tail.

// frameHeader is a frame's header size. A frame is built by appending
// frameHeader zero bytes, then the payload, and then sealFrame.
const frameHeader = 8

// sealFrame fills in the header of frame once its payload is in place.
func sealFrame(frame []byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	binary.BigEndian.PutUint32(frame[4:], crc32Sum(frame[frameHeader:]))
}

// readFrame reads one frame. io.EOF means a clean end; any partial or
// corrupt frame is reported as errTorn so callers can classify it.
var errTorn = errors.New("wal: incomplete or corrupt frame")

func readFrame(r io.Reader) ([]byte, error) {
	hdr := make([]byte, frameHeader)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxRecordSize {
		return nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn
	}
	if crc32Sum(payload) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, errTorn
	}
	return payload, nil
}

// ScanSegment reads every intact record of a segment file in order, calling
// fn with the record and the file offset at which its frame starts. It
// returns the number of intact records.
//
// Errors distinguish three failure shapes. A frame that is incomplete or
// fails its CRC returns a *TornTailError (crash artifact — the tail was never
// durably acknowledged) whose Offset marks the end of the intact prefix. A
// CRC-valid frame that lacks the binary marker returns an error wrapping
// ErrLegacyFormat, naming path and offset. A CRC-valid frame with the marker
// whose payload is not a well-formed record returns a *BadRecordError (the
// bytes ARE what was written, and they are wrong). A clean end returns nil.
func ScanSegment(path string, fn func(rec *Record, off int64) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := newCountingReader(f)
	count := 0
	for {
		start := br.n
		payload, err := readFrame(br)
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, &TornTailError{Path: path, Offset: start}
		}
		rec, err := decodeRecordPayload(payload)
		if errors.Is(err, ErrLegacyFormat) {
			return count, fmt.Errorf("%w: %s at offset %d", err, path, start)
		}
		if err != nil {
			return count, &BadRecordError{Path: path, Offset: start, Reason: err.Error()}
		}
		if fn != nil {
			if err := fn(rec, start); err != nil {
				return count, err
			}
		}
		count++
	}
}

// countingReader tracks how many bytes have been consumed so scan offsets
// are exact even though reads go through a buffer.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader { return &countingReader{r: r} }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// File naming: segments are wal-%08d.log with a monotonically increasing
// index; snapshots are snap-%08d.db where the index names the first segment
// NOT covered by the snapshot (replay = snapshot + segments >= index).
const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".db"
)

func segmentPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, idx, segmentSuffix))
}

func snapshotPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapshotPrefix, idx, snapshotSuffix))
}

func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	idx, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Segments lists a WAL directory's segment files in index order.
func Segments(dir string) ([]string, error) {
	idxs, err := listIndexed(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = segmentPath(dir, idx)
	}
	return out, nil
}

// Snapshots lists a WAL directory's snapshot files in index order.
func Snapshots(dir string) ([]string, error) {
	idxs, err := listIndexed(dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = snapshotPath(dir, idx)
	}
	return out, nil
}

func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range ents {
		if idx, ok := parseIndexed(e.Name(), prefix, suffix); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// ReadSnapshot loads and CRC-verifies one snapshot file. A CRC-valid body
// that lacks the binary marker returns an error wrapping ErrLegacyFormat.
func ReadSnapshot(path string) ([]store.WriteDesc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, err := readFrame(f)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	objs, err := decodeSnapshotBody(payload)
	if errors.Is(err, ErrLegacyFormat) {
		return nil, fmt.Errorf("%w: %s at offset 0", err, path)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	return objs, nil
}

// writeSnapshotTemp writes a CRC-framed snapshot to a synced temporary file
// in dir, which recovery ignores, and returns its path; the caller renames it
// into place (FinishCheckpoint) or removes it.
func writeSnapshotTemp(dir string, objs []store.WriteDesc) (string, error) {
	frame, err := appendSnapshotBody(make([]byte, frameHeader), objs)
	if err != nil {
		return "", fmt.Errorf("wal: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", err
	}
	sealFrame(frame)
	_, err = tmp.Write(frame)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// syncDir fsyncs a directory so renames and removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms refuse to fsync directories; that only weakens the
	// durability of the rename itself, not file contents.
	_ = d.Sync()
	return nil
}
