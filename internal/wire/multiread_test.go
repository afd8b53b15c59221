package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"qracn/internal/store"
)

// multiReadEnv is a read-ahead's request: one read naming four objects, with
// the validation list it carries once for all of them.
func multiReadEnv() *Envelope {
	return &Envelope{Seq: 11, Req: &Request{
		Kind: KindRead, TxID: "c1-t2-a0", Deadline: 1700000000123456789,
		Read: &ReadRequest{
			Object:   store.ID("stock", 0, 1),
			More:     []store.ObjectID{store.ID("stock", 0, 2), store.ID("item", 7), store.ID("district", 0, 1)},
			Validate: []store.ReadDesc{{ID: store.ID("warehouse", 0), Version: 3}},
		},
	}}
}

// multiReadReplyEnv is a member's answer to it: the first object's outcome
// is the reply's own, each further one's its result — present, protected
// with a witness, absent.
func multiReadReplyEnv() *Envelope {
	return &Envelope{Seq: 11, IsResponse: true, Resp: &Response{
		Status: StatusOK,
		Read: &ReadResponse{
			Value: store.Tuple{store.Int64(7), store.Int64(300)}, Version: 4,
			Invalid: []store.ObjectID{store.ID("warehouse", 0)},
			More: []ReadResult{
				{Status: StatusOK, Version: 2, Value: store.Int64(1000)},
				{Status: StatusBusy, ConflictTx: "c3-t9-a1"},
				{Status: StatusNotFound},
			},
		},
	}}
}

func TestMultiObjectReadRoundTrips(t *testing.T) {
	for _, compress := range []bool{false, true} {
		mustRoundTrip(t, multiReadEnv(), compress)
		mustRoundTrip(t, multiReadReplyEnv(), compress)
	}
}

// TestOneObjectReadFrameUnchanged: an empty More, nil or not, leaves a read
// and its reply as they were encoded before the field existed.
func TestOneObjectReadFrameUnchanged(t *testing.T) {
	req := multiReadEnv()
	req.Req.Read.More = nil
	want, _ := AppendEnvelope(nil, req)
	req.Req.Read.More = []store.ObjectID{}
	if got, _ := AppendEnvelope(nil, req); !bytes.Equal(got, want) {
		t.Fatalf("empty More changed the request:\n got %x\nwant %x", got, want)
	}
	resp := multiReadReplyEnv()
	resp.Resp.Read.More = nil
	want, _ = AppendEnvelope(nil, resp)
	resp.Resp.Read.More = []ReadResult{}
	if got, _ := AppendEnvelope(nil, resp); !bytes.Equal(got, want) {
		t.Fatalf("empty More changed the reply:\n got %x\nwant %x", got, want)
	}
}

// TestMoreReadsBitNeedsARead: the further-objects bits are only valid next
// to a read payload, and announce at least one entry.
func TestMoreReadsBitNeedsARead(t *testing.T) {
	request := func(mask uint64, payload ...byte) []byte {
		b := []byte{1, envHasReq, byte(KindRead), 0, 0, 0} // seq, flags, kind, TxID, TraceID, SpanID
		return append(binary.AppendUvarint(b, mask), payload...)
	}
	response := func(mask uint64, payload ...byte) []byte {
		b := []byte{1, envIsResponse | envHasResp, 0, 0} // seq, flags, Status, Detail
		return append(binary.AppendUvarint(b, mask), payload...)
	}
	readPayload := []byte{1, 'a', 0, 0, 0}  // Object "a", no Validate, no StatsFor, retired flag byte 0
	replyPayload := []byte{valNil, 0, 0, 0} // no Value, Version 0, no Invalid, no Stats
	oneID, oneResult := []byte{1, 1, 'b'}, []byte{1, 0, 0, valNil, 0}
	cases := map[string][]byte{
		"request: further objects without a read":  request(reqHasMoreReads, oneID...),
		"request: further objects, none named":     request(reqHasRead|reqHasMoreReads, append(readPayload, 0)...),
		"response: further results without a read": response(respHasMoreReads, oneResult...),
		"response: further results, none sent":     response(respHasRead|respHasMoreReads, append(replyPayload, 0)...),
	}
	for name, payload := range cases {
		if _, err := DecodeEnvelope(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
	// With the payload they need, the same bits decode.
	req, err := DecodeEnvelope(request(reqHasRead|reqHasMoreReads, append(readPayload, oneID...)...))
	if err != nil || len(req.Req.Read.More) != 1 || req.Req.Read.More[0] != "b" {
		t.Fatalf("a two-object read: %+v, %v", req, err)
	}
	resp, err := DecodeEnvelope(response(respHasRead|respHasMoreReads, append(replyPayload, oneResult...)...))
	if err != nil || len(resp.Resp.Read.More) != 1 {
		t.Fatalf("a two-object reply: %+v, %v", resp, err)
	}
}
