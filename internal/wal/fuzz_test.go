package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"qracn/internal/store"
)

// writeFrame writes payload to w as one frame, header included.
func writeFrame(w io.Writer, payload []byte) error {
	frame := append(make([]byte, frameHeader), payload...)
	sealFrame(frame)
	_, err := w.Write(frame)
	return err
}

// unencodable is a Value gob cannot carry: it is never registered.
type unencodable struct{ ch chan int }

func (u unencodable) CloneValue() store.Value { return u }

// TestFrameEncodeFailureLeavesBufferIntact: a record that cannot be encoded
// leaves the frames already in the buffer as they were.
func TestFrameEncodeFailureLeavesBufferIntact(t *testing.T) {
	r := rec("acct/1", 1, 10)
	buf, err := AppendRecordFrame(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(buf)
	bad := Record{Type: RecordPrepare, TxID: "tx",
		Writes: []store.WriteDesc{{ID: "k", Value: unencodable{}}}}
	got, err := AppendRecordFrame(buf, &bad)
	if err == nil {
		t.Fatal("encoded a value gob cannot carry")
	}
	if !bytes.Equal(got, before) {
		t.Fatalf("buffer after a failed encode = %x, want %x", got, before)
	}
}

// FuzzRecordPayload: any payload either decodes or is refused with an error,
// never a panic; only one without the marker is refused as the legacy
// format; one that decodes does not with a byte more; and a record that decodes re-encodes to bytes that decode to
// the same record. Records are compared by their encoding, which keeps a NaN
// value equal to itself.
func FuzzRecordPayload(f *testing.F) {
	for _, rec := range goldenRecords() {
		frame, err := AppendRecordFrame(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[8:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecordPayload(payload)
		if err != nil {
			// Only a payload without the marker is the legacy format; one
			// with it is a bad record.
			legacy := len(payload) > 0 && payload[0] != binMarker
			if rec != nil || errors.Is(err, ErrLegacyFormat) != legacy {
				t.Fatalf("payload %x: record %+v, err %v", payload, rec, err)
			}
			return
		}
		if _, err := decodeRecordPayload(append(payload[:len(payload):len(payload)], 0)); err == nil {
			t.Fatalf("payload %x decoded with a trailing byte", payload)
		}
		enc, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
		}
		again, err := decodeRecordPayload(enc)
		if err != nil {
			t.Fatalf("re-encoded record %x does not decode: %v", enc, err)
		}
		enc2, err := AppendRecord(nil, again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("record changed across a round trip:\n first  %+v\n second %+v", rec, again)
		}
	})
}
