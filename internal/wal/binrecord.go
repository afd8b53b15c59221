package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	//	writes (wire write set: uvarint count, each: str ID | value |
	//	uvarint NewVersion | varint Block) | release (wire ID list:
	//	uvarint count of str) | quorum (wire node-ID list: uvarint count
	//	of varint)
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
// records carrying 2PC state emit v2. Every field after the version (and
// type) byte is a wire primitive, read back by a wire.Reader.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	v2 := rec.Type != RecordWrite || rec.Commit ||
		len(rec.Writes) > 0 || len(rec.Release) > 0 || len(rec.Quorum) > 0
	if !v2 {
		dst = append(dst, binMarker, binVersion)
	} else {
		dst = append(dst, binMarker, binVersion2, byte(rec.Type))
	}
	dst = wire.AppendString(dst, rec.TxID)
	dst = binary.AppendVarint(dst, int64(rec.Block))
	dst = wire.AppendString(dst, string(rec.Key))
	dst = binary.AppendUvarint(dst, rec.Version)
	dst, err := wire.AppendValue(dst, rec.Value)
	if err != nil || !v2 {
		return dst, err
	}
	dst = wire.AppendBool(dst, rec.Commit)
	if dst, err = wire.AppendWriteDescs(dst, rec.Writes); err != nil {
		return nil, err
	}
	dst = wire.AppendIDs(dst, rec.Release)
	return wire.AppendNodeIDs(dst, rec.Quorum), nil
}

// AppendRecordFrame appends rec as a complete CRC-framed binary record
// (header + payload) to dst, allocation-free once dst has capacity.
func AppendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	out, err := AppendRecord(append(dst, make([]byte, frameHeader)...), rec)
	if err != nil {
		return dst, err
	}
	sealFrame(out[len(dst):])
	return out, nil
}

// decodeRecordPayload parses one CRC-valid frame payload. A structural error
// is returned as a bare reason (the wire reader's error past the version and
// type bytes) wrapped by the caller into a BadRecordError with file
// position; ErrLegacyFormat is returned as itself.
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
	body := payload[2:]
	if version == binVersion2 {
		if len(body) < 1 {
			return nil, fmt.Errorf("v2 record truncated before type byte")
		}
		if body[0] > byte(RecordDecision) {
			return nil, fmt.Errorf("record type byte %d out of range", body[0])
		}
		rec.Type = RecordType(body[0])
		body = body[1:]
	}
	r := wire.NewReader(body)
	var block int64
	var key string
	var err error
	if rec.TxID, err = r.Str(); err != nil {
		return nil, err
	}
	if block, err = r.Varint(); err != nil {
		return nil, err
	}
	rec.Block = int(block)
	if key, err = r.Str(); err != nil {
		return nil, err
	}
	rec.Key = store.ObjectID(key)
	if rec.Version, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if rec.Value, err = r.Value(); err != nil {
		return nil, err
	}
	if version == binVersion2 {
		if rec.Commit, err = r.Bool(); err != nil {
			return nil, err
		}
		if rec.Writes, err = r.WriteDescs(); err != nil {
			return nil, err
		}
		if rec.Release, err = r.IDs(); err != nil {
			return nil, err
		}
		if rec.Quorum, err = r.NodeIDs(); err != nil {
			return nil, err
		}
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the record", n)
	}
	return rec, nil
}

// appendSnapshotBody appends the binary snapshot payload: marker, version,
// then the objects as one wire write set.
func appendSnapshotBody(dst []byte, objs []store.WriteDesc) ([]byte, error) {
	return wire.AppendWriteDescs(append(dst, binMarker, binVersion), objs)
}

// decodeSnapshotBody parses a snapshot payload. The object IDs share one
// copy of the body (the wire reader's frame copy); the store clones the keys
// it keeps, so the copy lives only as long as recovery's own state.
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
	r := wire.NewReader(payload[2:])
	objs, err := r.WriteDescs()
	if err != nil {
		return nil, err
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes after objects", n)
	}
	return objs, nil
}
