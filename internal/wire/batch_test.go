package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"qracn/internal/store"
)

func sampleBatch(n int) *Request {
	subs := make([]*Request, n)
	for i := range subs {
		subs[i] = &Request{
			Kind: KindRead,
			TxID: fmt.Sprintf("tx-%d", i),
			Read: &ReadRequest{
				Object:   store.ObjectID(fmt.Sprintf("obj/%d", i)),
				Validate: []store.ReadDesc{{ID: "seen", Version: uint64(i)}},
			},
		}
	}
	return &Request{Kind: KindBatch, TxID: "batch", Batch: &BatchRequest{Subs: subs}}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	mustRoundTrip(t, &Envelope{Seq: 8, Req: sampleBatch(4)}, false)
}

func TestBatchResponseRoundTrip(t *testing.T) {
	mustRoundTrip(t, &Envelope{Seq: 9, IsResponse: true, Resp: &Response{
		Status: StatusOK,
		Batch: &BatchResponse{Subs: []*Response{
			{Status: StatusOK, Read: &ReadResponse{Value: store.Int64(7), Version: 2}},
			{Status: StatusNotFound},
			{Status: StatusBusy, Read: &ReadResponse{Invalid: []store.ObjectID{"a"}}},
		}},
	}}, true)
}

// TestStreamCodecManyEnvelopes pushes a mixed stream (plain, batch, cancel
// frames) through one persistent encoder/decoder pair — what each direction
// of a TCP connection runs — and checks order and content survive, with and
// without compression.
func TestStreamCodecManyEnvelopes(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			var buf bytes.Buffer
			enc := NewBinaryEncoder(&buf, compress)
			var sent []*Envelope
			for i := 0; i < 20; i++ {
				var env *Envelope
				switch i % 3 {
				case 0:
					env = &Envelope{Seq: uint64(i), Req: sampleBatch(3)}
				case 1:
					env = &Envelope{Seq: uint64(i), Req: &Request{Kind: KindPing, TxID: fmt.Sprintf("t%d", i)}}
				case 2:
					env = &Envelope{Seq: uint64(i), Cancel: true}
				}
				if err := enc.Encode(env); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, env)
			}
			dec := NewBinaryDecoder(&buf)
			for i, want := range sent {
				got, err := dec.Decode()
				if err != nil {
					t.Fatalf("envelope %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("envelope %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestStreamCodecCompressedLargePayload exercises the compression path above
// CompressThreshold through the persistent codec.
func TestStreamCodecCompressedLargePayload(t *testing.T) {
	big := make(store.Bytes, 128<<10)
	for i := range big {
		big[i] = byte(i % 7) // compressible
	}
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf, true)
	env := &Envelope{Seq: 1, IsResponse: true, Resp: &Response{
		Status: StatusOK,
		Read:   &ReadResponse{Value: big, Version: 5},
	}}
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(big) {
		t.Fatalf("compressed stream (%d bytes) not smaller than payload (%d)", buf.Len(), len(big))
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	gb := got.Resp.Read.Value.(store.Bytes)
	if !bytes.Equal(gb, []byte(big)) {
		t.Fatal("payload corrupted through compressed stream codec")
	}
}
