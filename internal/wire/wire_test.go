package wire

import (
	"bytes"
	"errors"
	"reflect"
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

func TestRequestCloneIsDeep(t *testing.T) {
	in := sampleRequest()
	c := in.Clone()
	if !reflect.DeepEqual(in, c) {
		t.Fatal("clone differs from original")
	}
	c.Read.Validate[0].Version = 999
	c.Read.StatsFor[0] = "mutated"
	if in.Read.Validate[0].Version == 999 || in.Read.StatsFor[0] == "mutated" {
		t.Fatal("clone shares backing arrays with original")
	}
}

func TestResponseCloneIsDeep(t *testing.T) {
	in := &Response{
		Status: StatusOK,
		Read: &ReadResponse{
			Value:   store.Bytes{1, 2, 3},
			Version: 2,
			Stats:   map[store.ObjectID]float64{"a": 1},
		},
		Prepare: &PrepareResponse{Vote: true, Busy: []store.ObjectID{"b"}},
	}
	c := in.Clone()
	if !reflect.DeepEqual(in, c) {
		t.Fatal("clone differs from original")
	}
	c.Read.Value.(store.Bytes)[0] = 9
	c.Read.Stats["a"] = 7
	c.Prepare.Busy[0] = "z"
	if in.Read.Value.(store.Bytes)[0] == 9 || in.Read.Stats["a"] == 7 || in.Prepare.Busy[0] == "z" {
		t.Fatal("clone shares state with original")
	}
}

func TestCloneNil(t *testing.T) {
	var req *Request
	var resp *Response
	if req.Clone() != nil || resp.Clone() != nil {
		t.Fatal("nil clones should be nil")
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
}

// Property: frames round-trip for arbitrary payloads under both compression
// settings.
func TestFrameRoundTripProperty(t *testing.T) {
	if err := quick.Check(frameRoundTrips, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
