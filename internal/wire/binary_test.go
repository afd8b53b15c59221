package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"qracn/internal/store"
)

// binReadEnv / binBatchEnv are the hot-path shapes the allocation pins and
// benchmarks use: a single-object read and a 16-sub prefetch batch.
func binReadEnv() *Envelope {
	return &Envelope{Seq: 7, Req: &Request{
		Kind: KindRead,
		TxID: "c1-t2-a9",
		Read: &ReadRequest{
			Object:   store.ID("acct", 17),
			Validate: []store.ReadDesc{{ID: store.ID("acct", 3), Version: 12}},
			StatsFor: []store.ObjectID{store.ID("acct", 3)},
		},
	}}
}

func binBatchEnv() *Envelope {
	subs := make([]*Request, 16)
	for i := range subs {
		subs[i] = &Request{
			Kind: KindRead,
			TxID: "c1-t2-a9",
			Read: &ReadRequest{Object: store.ID("stock", i)},
		}
	}
	return &Envelope{Seq: 8, Req: &Request{Kind: KindBatch, Batch: &BatchRequest{Subs: subs}}}
}

// TestBinaryCRCDetectsCorruption flips each payload byte of a frame in turn
// and checks the decoder reports ErrBadFrame rather than returning a
// silently wrong envelope.
func TestBinaryCRCDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, false).Encode(binReadEnv()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := binHeaderSize; i < len(frame); i++ {
		mut := bytes.Clone(frame)
		mut[i] ^= 0x40
		_, err := NewBinaryDecoder(bytes.NewReader(mut)).Decode()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flip at %d: got %v, want ErrBadFrame", i, err)
		}
	}
}

// TestBinaryRejectsOutOfRangeKind covers both directions: the encoder
// refuses to emit a kind it does not know (so a new Kind cannot ship
// half-supported), and the decoder refuses a CRC-valid payload whose kind
// byte is outside [0, numKinds).
func TestBinaryRejectsOutOfRangeKind(t *testing.T) {
	var buf bytes.Buffer
	err := NewBinaryEncoder(&buf, false).Encode(&Envelope{Req: &Request{Kind: numKinds}})
	if err == nil || !strings.Contains(err.Error(), "out-of-range kind") {
		t.Fatalf("encode of Kind %d: got %v", int(numKinds), err)
	}

	// Hand-built payload: Seq=1, flags=hasReq, kind byte 0xEE.
	if _, err := DecodeEnvelope([]byte{1, envHasReq, 0xEE}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("decode of kind byte 0xEE: got %v", err)
	}
}

// TestBinaryRejectsVersionOnlyByte: the read payload's last byte once asked
// for an object's version without its value. The flag is retired: a read
// encodes the byte as 0, so plain-read frames keep their bytes, and a frame
// that sets it fails instead of being answered with the value it did not
// ask for.
func TestBinaryRejectsVersionOnlyByte(t *testing.T) {
	frame, err := AppendEnvelope(nil, &Envelope{Seq: 1, Req: &Request{Kind: KindRead, Read: &ReadRequest{Object: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Object "a", no Validate, no StatsFor, the retired byte: nothing follows.
	if !bytes.HasSuffix(frame, []byte{1, 'a', 0, 0, 0}) {
		t.Fatalf("read payload %x does not end in a zero flag byte", frame)
	}
	if _, err := DecodeEnvelope(frame); err != nil {
		t.Fatalf("plain read: %v", err)
	}
	frame[len(frame)-1] = 1
	if _, err := DecodeEnvelope(frame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("read with the retired flag set: got %v, want ErrBadFrame", err)
	}
}

// TestBinaryRejectsUnknownMaskBits: a presence bit the codec does not know —
// a retired payload's or one past the last — fails the frame instead of
// being skipped, so an old peer's retired payload is never misread as the
// bytes that follow it. Each retired payload's bit carries the bytes its
// empty payload used to take, so only the mask check can refuse it.
func TestBinaryRejectsUnknownMaskBits(t *testing.T) {
	request := func(mask uint64, payload ...byte) []byte {
		b := []byte{1, envHasReq, byte(KindPing), 0, 0, 0} // seq, flags, kind, TxID, TraceID, SpanID
		b = binary.AppendUvarint(b, mask)
		return append(b, payload...)
	}
	response := func(mask uint64, payload ...byte) []byte {
		b := []byte{1, envIsResponse | envHasResp, 0, 0} // seq, flags, Status, Detail
		b = binary.AppendUvarint(b, mask)
		return append(b, payload...)
	}
	cases := map[string][]byte{
		"request bit 3 (stats query)":       request(1 << 3),
		"request bit 4 (anti-entropy pull)": request(1<<4, 0),
		"request bit 8":                     request(1 << 8),
		"request bit 9":                     request(1 << 9),
		"request bit 13 (past the last)":    request(1 << 13),
		"response bit 2 (stats reply)":      response(1 << 2),
		"response bit 3 (anti-entropy)":     response(1<<3, 0),
		"response bit 10 (past the last)":   response(1 << 10),
		"retired kind 5":                    {1, envHasReq, 5, 0, 0, 0, 0},
	}
	for name, payload := range cases {
		if _, err := DecodeEnvelope(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
	// The same frames with the mask cleared decode: nothing else is wrong
	// with them.
	for _, payload := range [][]byte{request(0), response(0)} {
		if _, err := DecodeEnvelope(payload); err != nil {
			t.Fatalf("a plain ping/reply does not decode: %v", err)
		}
	}
}

// TestBinaryTruncationAndTrailingBytes hardens the payload parser: every
// prefix of a valid payload must error (not panic), and trailing garbage
// after a complete envelope is an error, not silently ignored.
func TestBinaryTruncationAndTrailingBytes(t *testing.T) {
	payload, err := AppendEnvelope(nil, binBatchEnv())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeEnvelope(payload[:i]); err == nil {
			t.Fatalf("truncation at %d decoded without error", i)
		}
	}
	if _, err := DecodeEnvelope(append(bytes.Clone(payload), 0xAB)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBinaryResponseRoundTrips exercises every response payload arm,
// including a batch with a nil sub and a stats map.
func TestBinaryResponseRoundTrips(t *testing.T) {
	envs := []*Envelope{
		{Seq: 1, IsResponse: true, Resp: &Response{
			Status: StatusOK,
			Read: &ReadResponse{
				Value:   store.Tuple{store.Int64(-3), store.String("x"), nil, store.Bytes{1, 2}},
				Version: 41,
				Invalid: []store.ObjectID{store.ID("acct", 2)},
				Stats:   map[store.ObjectID]float64{store.ID("acct", 2): 0.25, store.ID("acct", 9): 3.5},
			},
		}},
		{Seq: 2, IsResponse: true, Resp: &Response{
			Status:  StatusBusy,
			Detail:  "lock held",
			Prepare: &PrepareResponse{Vote: true, Busy: []store.ObjectID{store.ID("acct", 1)}},
		}},
		{Seq: 3, IsResponse: true, Resp: &Response{
			Status: StatusOK,
			Batch: &BatchResponse{Subs: []*Response{
				{Status: StatusOK, Read: &ReadResponse{Value: store.Float64(math.Inf(1)), Version: 9}},
				{Status: StatusNotFound, Detail: "gone"},
			}},
		}},
		{Seq: 5, Cancel: true},
	}
	for _, env := range envs {
		mustRoundTrip(t, env, false)
	}

	// A nil sub inside a batch is binary-only: gob cannot encode a nil
	// pointer in a slice at all, so only the binary layout (per-sub
	// presence byte) preserves it.
	nilSub := &Envelope{Seq: 6, IsResponse: true, Resp: &Response{
		Status: StatusOK,
		Batch:  &BatchResponse{Subs: []*Response{nil, {Status: StatusOK}}},
	}}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, false).Encode(nilSub); err != nil {
		t.Fatal(err)
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, nilSub) {
		t.Fatalf("nil batch sub mutated:\n got %+v\nwant %+v", got, nilSub)
	}
}

// binTestValue is a workload-defined Value type exercising the gob escape
// hatch (tag 255) for types the binary codec has no fixed tag for.
type binTestValue struct{ N int64 }

func (v binTestValue) CloneValue() store.Value { return v }

// TestBinaryCustomValueFallback pins that RegisterValue-registered types
// survive the binary codec via the inline gob blob.
func TestBinaryCustomValueFallback(t *testing.T) {
	RegisterValue(binTestValue{})
	env := &Envelope{Seq: 6, Req: &Request{
		Kind:   KindRepair,
		Repair: &RepairRequest{Object: store.ID("acct", 1), Value: binTestValue{N: 77}, Version: 3},
	}}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, false).Encode(env); err != nil {
		t.Fatal(err)
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("custom value mutated:\n got %+v\nwant %+v", got, env)
	}
}

// TestBinaryEmptySlicesDecodeNil pins the gob-compatible omit-empty
// semantics: zero-length slices and maps come back nil, so DeepEqual
// comparisons against gob-decoded envelopes hold.
func TestBinaryEmptySlicesDecodeNil(t *testing.T) {
	env := &Envelope{Seq: 9, Req: &Request{
		Kind: KindRead,
		Read: &ReadRequest{Object: "a", Validate: []store.ReadDesc{}, StatsFor: []store.ObjectID{}},
	}}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, false).Encode(env); err != nil {
		t.Fatal(err)
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.Req.Read.Validate != nil || got.Req.Read.StatsFor != nil {
		t.Fatalf("empty slices decoded non-nil: %+v", got.Req.Read)
	}
}

// TestBinaryEncodeAllocs is the allocation pin from the issue's acceptance
// criteria: steady-state binary encode of KindRead and KindBatch envelopes
// performs ZERO heap allocations. The encoder's scratch buffer and the
// destination buffer are warmed by one throwaway encode, mirroring a
// long-lived per-connection encoder.
func TestBinaryEncodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  *Envelope
	}{
		{"KindRead", binReadEnv()},
		{"KindBatch", binBatchEnv()},
	} {
		var sink bytes.Buffer
		enc := NewBinaryEncoder(&sink, false)
		if err := enc.Encode(tc.env); err != nil { // warm scratch + sink
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			sink.Reset()
			if err := enc.Encode(tc.env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("binary encode of %s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestBinaryDecodeAllocsBounded keeps decode honest: it must allocate the
// result graph and nothing else — and of that, every identifier string comes
// out of one copy of the frame and a batch's sub-requests out of two slabs,
// so neither costs an allocation apiece. A regression to a string per ID
// doubles the first bound, one to an object per sub-request sextuples the
// second.
func TestBinaryDecodeAllocsBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  *Envelope
		max  float64
	}{
		// Envelope+Request, frame copy, ReadRequest, two slices.
		{"KindRead", binReadEnv(), 6},
		// Envelope+Request, frame copy, BatchRequest, its pointer slice, the
		// Request slab and the ReadRequest slab, for 16 sub-requests.
		{"KindBatch", binBatchEnv(), 7},
	} {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf, false).Encode(tc.env); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		var r bytes.Reader
		dec := NewBinaryDecoder(&r)
		r.Reset(frame)
		if _, err := dec.Decode(); err != nil { // warm the frame buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			r.Reset(frame)
			if _, err := dec.Decode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("binary decode of %s: %.1f allocs/op, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestDecodedStringsShareOneFrameCopy pins what the holders of decoded IDs
// rely on: the IDs of one envelope are views into one private copy of the
// frame — not into the caller's buffer, which it may reuse — and an empty
// string is not a view at all, so it pins nothing.
func TestDecodedStringsShareOneFrameCopy(t *testing.T) {
	payload, err := AppendEnvelope(nil, binReadEnv())
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeEnvelope(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := binReadEnv()
	for i := range payload {
		payload[i] = 0xff // the caller reuses its buffer
	}
	if !reflect.DeepEqual(env, want) {
		t.Fatalf("decoded envelope changed with the caller's buffer:\n got %+v\nwant %+v", env.Req, want.Req)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	// TxID is the frame's first string, so the copy lies within a frame's
	// length either side of it.
	lo, hi := addr(env.Req.TxID)-uintptr(len(payload)), addr(env.Req.TxID)+uintptr(len(payload))
	if a := addr(string(env.Req.Read.Object)); a < lo || a > hi {
		t.Fatal("TxID and Object are not views into one copy of the frame")
	}
	if a := addr(env.Req.TraceID); env.Req.TraceID != "" || a >= lo && a <= hi {
		t.Fatal("an empty decoded string points into the frame copy and would pin it")
	}
}

// Benchmarks on the two hot-path shapes.
func benchmarkEncode(b *testing.B, env *Envelope) {
	var sink bytes.Buffer
	enc := NewBinaryEncoder(&sink, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecode(b *testing.B, env *Envelope) {
	// One long stream of identical frames, as on a real connection.
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf, false)
	const frames = 512
	for i := 0; i < frames; i++ {
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	dec := NewBinaryDecoder(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Len() == 0 {
			r.Reset(stream)
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeReadBinary(b *testing.B)  { benchmarkEncode(b, binReadEnv()) }
func BenchmarkEncodeBatchBinary(b *testing.B) { benchmarkEncode(b, binBatchEnv()) }
func BenchmarkDecodeReadBinary(b *testing.B)  { benchmarkDecode(b, binReadEnv()) }
func BenchmarkDecodeBatchBinary(b *testing.B) { benchmarkDecode(b, binBatchEnv()) }
