package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// Record format. A record frame's payload is:
//
//	0x00 marker | 0x01 version | str TxID | varint Block |
//	str Key | uvarint Version | value (wire value encoding)
//
// The marker is what tells this format from the gob stream that releases
// before the binary codec wrote: a gob stream begins with its first
// message's byte count, an unsigned varint that is never zero, so a leading
// 0x00 can only be the binary marker. This build reads binary only; a
// CRC-valid frame that starts with anything else is ErrLegacyFormat.
//
// Snapshot files use the same marker scheme for their body payload.

// ErrLegacyFormat reports a log or snapshot written in the gob format that
// preceded the binary one. The bytes are intact (the frame's CRC verified)
// but this build cannot read them, and must not treat them as damage: Open
// returns the error without truncating, skipping or creating any file, so
// the directory can still be opened by a release that reads gob.
var ErrLegacyFormat = errors.New("wal: written in the pre-binary (gob) format, which this build does not read")

const (
	binMarker  byte = 0x00
	binVersion byte = 0x01
	// binVersion2 extends the record payload with a record-type byte and the
	// 2PC fields (write set, release set, quorum membership, commit flag):
	//
	//	0x00 marker | 0x02 version | u8 type | str TxID | varint Block |
	//	str Key | uvarint Version | value | u8 Commit |
	//	writes (uvarint count, each: str ID | value | uvarint NewVersion |
	//	varint Block) | release (uvarint count of str) |
	//	quorum (uvarint count of varint)
	//
	// Plain object writes keep the v1 layout so pre-existing segments and
	// the zero-alloc hot append path are untouched; only prepare/decision
	// records (and a hypothetical write carrying 2PC fields) take v2.
	binVersion2 byte = 0x02
)

// BadRecordError reports a frame whose CRC is VALID and whose payload carries
// the binary marker but is not a well-formed record — a version byte out of
// range, or a structurally broken body. Unlike a torn tail this is not a
// crash artifact: the bytes were written durably and are wrong, so
// inspection tools must fail loudly on it (recovery still truncates, like a
// torn tail, to preserve availability from the intact prefix).
type BadRecordError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *BadRecordError) Error() string {
	return fmt.Sprintf("wal: bad record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// AppendRecord appends rec's binary payload (no frame header) to dst. It
// allocates only if dst lacks capacity. Plain writes emit the v1 layout;
// records carrying 2PC state emit v2.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	v2 := rec.Type != RecordWrite || rec.Commit ||
		len(rec.Writes) > 0 || len(rec.Release) > 0 || len(rec.Quorum) > 0
	if !v2 {
		dst = append(dst, binMarker, binVersion)
	} else {
		dst = append(dst, binMarker, binVersion2, byte(rec.Type))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.TxID)))
	dst = append(dst, rec.TxID...)
	dst = binary.AppendVarint(dst, int64(rec.Block))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.AppendUvarint(dst, rec.Version)
	dst, err := wire.AppendValue(dst, rec.Value)
	if err != nil || !v2 {
		return dst, err
	}
	if rec.Commit {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Writes)))
	for i := range rec.Writes {
		w := &rec.Writes[i]
		dst = binary.AppendUvarint(dst, uint64(len(w.ID)))
		dst = append(dst, w.ID...)
		if dst, err = wire.AppendValue(dst, w.Value); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, w.NewVersion)
		dst = binary.AppendVarint(dst, int64(w.Block))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Release)))
	for _, id := range rec.Release {
		dst = binary.AppendUvarint(dst, uint64(len(id)))
		dst = append(dst, id...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Quorum)))
	for _, n := range rec.Quorum {
		dst = binary.AppendVarint(dst, int64(n))
	}
	return dst, nil
}

// AppendRecordFrame appends rec as a complete CRC-framed binary record
// (header + payload) to dst — the append-path equivalent of writeFrame,
// allocation-free once dst has capacity.
func AppendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header backfilled below
	dst, err := AppendRecord(dst, rec)
	if err != nil {
		return dst[:head], err
	}
	payload := dst[head+8:]
	binary.BigEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[head+4:], crc32Sum(payload))
	return dst, nil
}

// decodeRecordPayload parses one CRC-valid frame payload. A structural error
// is returned as a bare reason string wrapped by the caller into a
// BadRecordError with file position; ErrLegacyFormat is returned as itself.
func decodeRecordPayload(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty payload")
	}
	if payload[0] != binMarker {
		return nil, ErrLegacyFormat
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("binary record truncated before version byte")
	}
	version := payload[1]
	if version != binVersion && version != binVersion2 {
		return nil, fmt.Errorf("binary record version byte %d out of range (know %d and %d)",
			version, binVersion, binVersion2)
	}
	rec := &Record{}
	buf := payload[2:]
	if version == binVersion2 {
		if len(buf) < 1 {
			return nil, fmt.Errorf("v2 record truncated before type byte")
		}
		if buf[0] > byte(RecordDecision) {
			return nil, fmt.Errorf("record type byte %d out of range", buf[0])
		}
		rec.Type = RecordType(buf[0])
		buf = buf[1:]
	}
	var s string
	var err error
	if s, buf, err = takeString(buf); err != nil {
		return nil, fmt.Errorf("TxID: %v", err)
	}
	rec.TxID = s
	block, n := binary.Varint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated Block varint")
	}
	rec.Block = int(block)
	buf = buf[n:]
	if s, buf, err = takeString(buf); err != nil {
		return nil, fmt.Errorf("Key: %v", err)
	}
	rec.Key = store.ObjectID(s)
	ver, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated Version uvarint")
	}
	rec.Version = ver
	buf = buf[n:]
	v, used, err := wire.DecodeValue(buf)
	if err != nil {
		return nil, fmt.Errorf("Value: %v", err)
	}
	rec.Value = v
	buf = buf[used:]
	if version == binVersion {
		if len(buf) != 0 {
			return nil, fmt.Errorf("%d trailing bytes after value", len(buf))
		}
		return rec, nil
	}
	if len(buf) < 1 {
		return nil, fmt.Errorf("truncated Commit byte")
	}
	rec.Commit = buf[0] != 0
	buf = buf[1:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated Writes count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("Writes count %d exceeds remaining %d bytes", count, len(buf))
	}
	if count > 0 {
		rec.Writes = make([]store.WriteDesc, 0, count)
		for i := uint64(0); i < count; i++ {
			var w store.WriteDesc
			if s, buf, err = takeString(buf); err != nil {
				return nil, fmt.Errorf("write %d ID: %v", i, err)
			}
			w.ID = store.ObjectID(s)
			if w.Value, used, err = wire.DecodeValue(buf); err != nil {
				return nil, fmt.Errorf("write %d value: %v", i, err)
			}
			buf = buf[used:]
			if w.NewVersion, n = binary.Uvarint(buf); n <= 0 {
				return nil, fmt.Errorf("write %d truncated version", i)
			}
			buf = buf[n:]
			if block, n = binary.Varint(buf); n <= 0 {
				return nil, fmt.Errorf("write %d truncated block", i)
			}
			w.Block = int(block)
			buf = buf[n:]
			rec.Writes = append(rec.Writes, w)
		}
	}
	if count, n = binary.Uvarint(buf); n <= 0 {
		return nil, fmt.Errorf("truncated Release count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("Release count %d exceeds remaining %d bytes", count, len(buf))
	}
	if count > 0 {
		rec.Release = make([]store.ObjectID, 0, count)
		for i := uint64(0); i < count; i++ {
			if s, buf, err = takeString(buf); err != nil {
				return nil, fmt.Errorf("release %d: %v", i, err)
			}
			rec.Release = append(rec.Release, store.ObjectID(s))
		}
	}
	if count, n = binary.Uvarint(buf); n <= 0 {
		return nil, fmt.Errorf("truncated Quorum count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("Quorum count %d exceeds remaining %d bytes", count, len(buf))
	}
	if count > 0 {
		rec.Quorum = make([]quorum.NodeID, 0, count)
		for i := uint64(0); i < count; i++ {
			var id int64
			if id, n = binary.Varint(buf); n <= 0 {
				return nil, fmt.Errorf("quorum %d truncated", i)
			}
			buf = buf[n:]
			rec.Quorum = append(rec.Quorum, quorum.NodeID(id))
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after quorum", len(buf))
	}
	return rec, nil
}

// takeString reads a uvarint-prefixed string, validating the length against
// the remaining bytes.
func takeString(buf []byte) (string, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return "", nil, fmt.Errorf("truncated length")
	}
	buf = buf[used:]
	if n > uint64(len(buf)) {
		return "", nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

// appendSnapshotBody appends the binary snapshot payload: marker, version,
// object count, then each object as str ID | value | uvarint NewVersion |
// varint Block.
func appendSnapshotBody(dst []byte, objs []store.WriteDesc) ([]byte, error) {
	dst = append(dst, binMarker, binVersion)
	dst = binary.AppendUvarint(dst, uint64(len(objs)))
	var err error
	for i := range objs {
		o := &objs[i]
		dst = binary.AppendUvarint(dst, uint64(len(o.ID)))
		dst = append(dst, o.ID...)
		if dst, err = wire.AppendValue(dst, o.Value); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, o.NewVersion)
		dst = binary.AppendVarint(dst, int64(o.Block))
	}
	return dst, nil
}

// decodeSnapshotBody parses a snapshot payload.
func decodeSnapshotBody(payload []byte) ([]store.WriteDesc, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty payload")
	}
	if payload[0] != binMarker {
		return nil, ErrLegacyFormat
	}
	if len(payload) < 2 || payload[1] != binVersion {
		return nil, fmt.Errorf("snapshot version byte out of range")
	}
	buf := payload[2:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated object count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("object count %d exceeds remaining %d bytes", count, len(buf))
	}
	objs := make([]store.WriteDesc, 0, count)
	for i := uint64(0); i < count; i++ {
		var o store.WriteDesc
		s, rest, err := takeString(buf)
		if err != nil {
			return nil, fmt.Errorf("object %d ID: %v", i, err)
		}
		o.ID = store.ObjectID(s)
		buf = rest
		v, used, err := wire.DecodeValue(buf)
		if err != nil {
			return nil, fmt.Errorf("object %d value: %v", i, err)
		}
		o.Value = v
		buf = buf[used:]
		ver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("object %d truncated version", i)
		}
		o.NewVersion = ver
		buf = buf[n:]
		block, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("object %d truncated block", i)
		}
		o.Block = int(block)
		buf = buf[n:]
		objs = append(objs, o)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after objects", len(buf))
	}
	return objs, nil
}
