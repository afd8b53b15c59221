package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"qracn/internal/store"
)

func sampleRequest() *Request {
	return &Request{
		Kind: KindRead,
		TxID: "tx-1",
		Read: &ReadRequest{
			Object: "district/1/2",
			Validate: []store.ReadDesc{
				{ID: "warehouse/1", Version: 3},
				{ID: "customer/1/2/3", Version: 9},
			},
			StatsFor: []store.ObjectID{"district/1/2"},
		},
	}
}

func TestRoundTripRequest(t *testing.T) {
	mustRoundTrip(t, &Envelope{Seq: 42, Req: sampleRequest()}, true)
}

func TestRoundTripResponseWithValues(t *testing.T) {
	mustRoundTrip(t, &Envelope{Seq: 1, IsResponse: true, Resp: &Response{
		Status: StatusOK,
		Read: &ReadResponse{
			Value:   store.Tuple{store.Int64(5), store.String("x"), store.Bytes{1, 2}},
			Version: 7,
			Invalid: []store.ObjectID{"a"},
			Stats:   map[store.ObjectID]float64{"a": 2.5},
		},
	}}, false)
}

// bytesEnv carries payload as a read response, so its size drives the frame
// size on either side of CompressThreshold.
func bytesEnv(payload []byte) *Envelope {
	return &Envelope{Seq: 1, IsResponse: true, Resp: &Response{
		Status: StatusOK, Read: &ReadResponse{Value: store.Bytes(payload), Version: 1},
	}}
}

// frameRoundTrips reports whether payload survives one framed encode/decode.
func frameRoundTrips(payload []byte, compress bool) bool {
	got, err := binaryRoundTrip(bytesEnv(payload), compress)
	return err == nil && bytes.Equal(got.Resp.Read.Value.(store.Bytes), payload)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, size := range []int{0, 1, CompressThreshold, CompressThreshold + 1, 100000} {
			payload := bytes.Repeat([]byte("abcdefgh"), size/8+1)[:size]
			if !frameRoundTrips(payload, compress) {
				t.Fatalf("compress=%v size=%d: payload mismatch", compress, size)
			}
		}
	}
}

func TestCompressionShrinksRedundantPayload(t *testing.T) {
	env := bytesEnv(bytes.Repeat([]byte("warehouse/1 district/1 "), 200))
	var plain, comp bytes.Buffer
	if err := NewBinaryEncoder(&plain, false).Encode(env); err != nil {
		t.Fatal(err)
	}
	if err := NewBinaryEncoder(&comp, true).Encode(env); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= plain.Len() {
		t.Fatalf("compressed frame (%d) not smaller than plain (%d)", comp.Len(), plain.Len())
	}
}

func TestIncompressiblePayloadKeptPlain(t *testing.T) {
	// Already-compressed-looking data: flate output would be larger, so the
	// frame must fall back to the plain payload and still round-trip.
	payload := make([]byte, 4096)
	x := uint32(2463534242)
	for i := range payload {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		payload[i] = byte(x)
	}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, true).Encode(bytesEnv(payload)); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4]&binFlagCompressed != 0 {
		t.Fatal("incompressible payload was framed compressed")
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Resp.Read.Value.(store.Bytes), payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0}
	_, err := NewBinaryDecoder(bytes.NewReader(hdr)).Decode()
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want frame-size error", err)
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	mustRoundTrip(t, &Envelope{Seq: 2, Req: &Request{
		Kind: KindDecision,
		TxID: "tx-9",
		Decision: &DecisionRequest{
			Commit: true,
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(1), NewVersion: 4}},
		},
	}}, false)
}

func TestStatusAndKindStrings(t *testing.T) {
	if StatusOK.String() != "ok" || StatusBusy.String() != "busy" ||
		StatusNotFound.String() != "not-found" || StatusError.String() != "error" {
		t.Fatal("Status.String mismatch")
	}
	if KindRead.String() != "read" || KindPrepare.String() != "prepare" ||
		KindDecision.String() != "decision" || KindShardMap.String() != "shard-map" || KindPing.String() != "ping" {
		t.Fatal("Kind.String mismatch")
	}
	// A kind outside the named set is named by its number, not as a ping:
	// the string names serve-<kind> spans.
	for k, want := range map[Kind]string{kindRetired: "kind(5)", Kind(42): "kind(42)", Kind(-1): "kind(-1)"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// Property: frames round-trip for arbitrary payloads under both compression
// settings.
func TestFrameRoundTripProperty(t *testing.T) {
	if err := quick.Check(frameRoundTrips, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
