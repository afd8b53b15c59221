package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/store"
	"qracn/internal/trace"
)

// inspectSeed is a response-side KindInspect envelope for the fuzz corpora:
// the request fixtures cover every kind's request, and this is the one reply
// whose payload no other seed resembles.
func inspectSeed(t testing.TB) *Envelope {
	at := time.Unix(1700000000, 42).UTC()
	return inspectEnvelope(t, forensics.Document{
		Spans: []trace.Span{{Trace: "c1-t2-a0", ID: 5, Name: "serve-read", Site: "node-1", Start: at, End: at}},
		Forensics: forensics.Snapshot{
			Aborts:      []forensics.AbortEvent{{At: at, TxID: "c1-t4-a2", Key: "acct/9", Cause: forensics.CauseLockConflict}},
			TotalAborts: 1,
		},
	})
}

// seedRequests is every kind's fixture plus the two request shapes that
// share a kind with one: the forwarded decision and the stats-only read.
func seedRequests() []*Request {
	out := make([]*Request, 0, len(kindFixtures)+2)
	for _, req := range kindFixtures {
		out = append(out, req)
	}
	fwd := kindFixtures[KindDecision].Clone()
	fwd.Decision.Forwarded = true
	stats := &Request{Kind: KindRead, Read: &ReadRequest{StatsFor: []store.ObjectID{store.ID("acct", 5)}}}
	return append(out, fwd, stats)
}

// rawFrame wraps payload in a CRC-valid frame header with the given flags.
func rawFrame(flags byte, payload []byte) []byte {
	hdr := make([]byte, binHeaderSize, binHeaderSize+len(payload))
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
	hdr[4] = flags
	binary.BigEndian.PutUint32(hdr[5:], crc32.Checksum(payload, binCRC))
	return append(hdr, payload...)
}

// FuzzReadFrame hardens the frame reader against malformed input: whatever
// bytes a broken or malicious peer sends, the stream decoder must return an
// error or an envelope — never panic or allocate past MaxFrameSize.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: valid plain and compressed frames plus damaged ones.
	var plain bytes.Buffer
	_ = NewBinaryEncoder(&plain, false).Encode(&Envelope{Seq: 1, Req: &Request{Kind: KindPing, TxID: "hello quorum"}})
	f.Add(plain.Bytes())

	var comp bytes.Buffer
	_ = NewBinaryEncoder(&comp, true).Encode(bytesEnv(bytes.Repeat([]byte("warehouse district "), 100)))
	f.Add(comp.Bytes())

	f.Add([]byte{})
	f.Add(rawFrame(binFlagCompressed, []byte("ab")))              // claims compressed, garbage body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 2, 3}) // oversized length
	f.Add(plain.Bytes()[:3])                                      // truncated header
	f.Add(comp.Bytes()[:len(comp.Bytes())/2])                     // truncated compressed frame
	f.Add(append(plain.Bytes(), comp.Bytes()...))                 // concatenated frames

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBinaryDecoder(bytes.NewReader(data))
		for {
			if _, err := dec.Decode(); err != nil {
				break
			}
		}
		if cap(dec.frame) > MaxFrameSize {
			t.Fatalf("frame buffer of %d exceeds the frame limit", cap(dec.frame))
		}
	})
}

// FuzzEnvelopeRoundTrip checks that every envelope the payload parser
// accepts is re-encoded and parsed back identically, and that arbitrary
// bytes never panic it.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, req := range seedRequests() {
		payload, _ := AppendEnvelope(nil, &Envelope{Seq: 1, Req: req})
		f.Add(payload)
	}
	f.Add([]byte("not an envelope at all"))
	cancel, _ := AppendEnvelope(nil, &Envelope{Seq: 3, Cancel: true})
	f.Add(cancel)
	inspect, _ := AppendEnvelope(nil, inspectSeed(f))
	f.Add(inspect)

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		out, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		env2, err := DecodeEnvelope(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		normalizeEnvelope(env)
		normalizeEnvelope(env2)
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("round trip changed the envelope:\n first  %+v\n second %+v", env, env2)
		}
	})
}

// FuzzCodecEquivalence is the differential oracle from the codec migration:
// any envelope encoding/gob can represent must survive the binary codec
// structurally unchanged (and the binary parser must never panic on
// arbitrary frames). The fuzzer feeds raw bytes; whatever the in-test gob
// oracle decodes out of them becomes a test vector that is pushed through
// the binary framing and compared structurally.
//
// Two codec-semantic differences are normalized before comparison rather
// than papered over in the codec itself:
//
//   - time.Time: gob keeps the zone/monotonic envelope, binary keeps the
//     UnixNano instant. Both sides collapse to time.Unix(0, UnixNano).UTC.
//   - NaN: reflect.DeepEqual uses ==, under which NaN != NaN, so NaNs on
//     both sides collapse to a sentinel.
//
// The one intentional behavioral difference is asserted, not skipped: the
// binary encoder REJECTS kinds outside [0, numKinds), where gob would
// happily carry garbage.
func FuzzCodecEquivalence(f *testing.F) {
	for _, req := range seedRequests() {
		var buf bytes.Buffer
		_ = gobEncode(&buf, &Envelope{Seq: 3, Req: req})
		f.Add(buf.Bytes())
	}
	var resp bytes.Buffer
	_ = gobEncode(&resp, &Envelope{
		Seq: 4, IsResponse: true,
		Resp: &Response{Status: StatusOK, Read: &ReadResponse{
			Value: store.Tuple{store.Int64(1), store.Bytes("b")}, Version: 2,
			Stats: map[store.ObjectID]float64{"a": 0.5},
		}},
	})
	f.Add(resp.Bytes())
	f.Add(rawFrame(0, []byte{1, 0})) // a tiny binary frame: Seq 1, nothing else
	var inspect bytes.Buffer
	_ = gobEncode(&inspect, inspectSeed(f))
	f.Add(inspect.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Mutated gob streams can claim enormous lengths or degenerate type
		// graphs that take seconds to reject; cap the input so throughput
		// stays useful. Real envelopes in the corpus are ~2 KiB.
		if len(data) > 8<<10 {
			return
		}
		// Arbitrary bytes must never panic the binary stream decoder.
		_, _ = NewBinaryDecoder(bytes.NewReader(data)).Decode()

		env, err := gobDecode(bytes.NewReader(data))
		if err != nil || env == nil {
			return
		}
		// gob → binary direction, through the real framing.
		binEnv, err := binaryRoundTrip(env, false)
		if err != nil {
			if strings.Contains(err.Error(), "out-of-range kind") ||
				strings.Contains(err.Error(), "nested deeper than") {
				// Asserted differences: binary refuses garbage kinds and
				// pathological nesting that gob happens to represent.
				return
			}
			t.Fatalf("binary cannot carry a gob-representable envelope: %v", err)
		}

		// binary → gob direction: the oracle re-encodes the same envelope;
		// its round trip is the canonical form binary must match.
		var gobPipe bytes.Buffer
		if err := gobEncode(&gobPipe, env); err != nil {
			return // not canonically re-encodable (e.g. nil in slice)
		}
		canon, err := gobDecode(&gobPipe)
		if err != nil {
			t.Fatalf("gob cannot re-decode its own stream: %v", err)
		}

		normalizeEnvelope(canon)
		normalizeEnvelope(binEnv)
		if !reflect.DeepEqual(canon, binEnv) {
			t.Fatalf("codecs disagree:\n gob    %+v\n binary %+v", canon, binEnv)
		}
	})
}

// normalizeEnvelope collapses the two representation differences documented
// on FuzzCodecEquivalence (time zones, NaN) in place.
func normalizeEnvelope(env *Envelope) {
	if env.Req != nil {
		normalizeRequest(env.Req, 0)
	}
	if env.Resp != nil {
		normalizeResponse(env.Resp, 0)
	}
}

func normalizeRequest(r *Request, depth int) {
	if r == nil || depth > maxBinaryDepth {
		return
	}
	if r.Prepare != nil {
		normalizeWrites(r.Prepare.Writes)
	}
	if r.Decision != nil {
		normalizeWrites(r.Decision.Writes)
	}
	if r.Repair != nil {
		r.Repair.Value = normalizeValue(r.Repair.Value, depth)
	}
	if r.Batch != nil {
		for _, sub := range r.Batch.Subs {
			normalizeRequest(sub, depth+1)
		}
	}
}

func normalizeResponse(r *Response, depth int) {
	if r == nil || depth > maxBinaryDepth {
		return
	}
	if r.Read != nil {
		r.Read.Value = normalizeValue(r.Read.Value, depth)
		normalizeLevels(r.Read.Stats)
	}
	if r.Sync != nil {
		normalizeWrites(r.Sync.Objects)
	}
	if r.Batch != nil {
		for _, sub := range r.Batch.Subs {
			normalizeResponse(sub, depth+1)
		}
	}
}

func normalizeWrites(writes []store.WriteDesc) {
	for i := range writes {
		writes[i].Value = normalizeValue(writes[i].Value, 0)
	}
}

func normalizeLevels(levels map[store.ObjectID]float64) {
	for k, v := range levels {
		if math.IsNaN(v) {
			levels[k] = math.MaxFloat64
		}
	}
}

func normalizeValue(v store.Value, depth int) store.Value {
	if depth > maxBinaryDepth {
		return v
	}
	switch x := v.(type) {
	case store.Float64:
		if math.IsNaN(float64(x)) {
			return store.Float64(math.MaxFloat64)
		}
	case store.Tuple:
		for i := range x {
			x[i] = normalizeValue(x[i], depth+1)
		}
	}
	return v
}

func normalizeTime(t time.Time) time.Time {
	if t.IsZero() {
		return time.Time{}
	}
	return time.Unix(0, t.UnixNano()).UTC()
}
