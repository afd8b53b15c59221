package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/trace"
)

// kindFixtures holds one representative request per Kind. The round-trip
// test below iterates every Kind value [0, numKinds) and fails when a kind
// has no fixture, so adding a message type without codec coverage is caught
// the moment the enum grows.
var kindFixtures = map[Kind]*Request{
	KindRead: {
		Kind:     KindRead,
		TxID:     "tx-read",
		Deadline: 1700000000123456789,
		Read: &ReadRequest{
			Object:   store.ID("acct", 1),
			Validate: []store.ReadDesc{{ID: store.ID("acct", 2), Version: 7}},
			StatsFor: []store.ObjectID{store.ID("acct", 3)},
		},
	},
	KindPrepare: {
		Kind: KindPrepare,
		TxID: "tx-prep",
		Prepare: &PrepareRequest{
			Reads:  []store.ReadDesc{{ID: store.ID("acct", 1), Version: 3}},
			Writes: []store.WriteDesc{{ID: store.ID("acct", 1), Value: store.Int64(42), NewVersion: 4, Block: 2}},
			Quorum: []quorum.NodeID{0, 2, 5},
		},
	},
	KindDecision: {
		Kind: KindDecision,
		TxID: "tx-dec",
		Decision: &DecisionRequest{
			Commit:  true,
			Writes:  []store.WriteDesc{{ID: store.ID("acct", 9), Value: store.String("v"), NewVersion: 11, Block: 1}},
			Release: []store.ObjectID{store.ID("acct", 9)},
		},
	},
	KindShardMap: {
		Kind:     KindShardMap,
		ShardMap: &ShardMapRequest{HaveVersion: 3},
	},
	KindPing: {Kind: KindPing},
	KindBatch: {
		Kind: KindBatch,
		Batch: &BatchRequest{Subs: []*Request{
			{Kind: KindRead, TxID: "tx-sub", Read: &ReadRequest{Object: store.ID("acct", 7)}},
			{Kind: KindPing},
		}},
	},
	KindRepair: {
		Kind:   KindRepair,
		Repair: &RepairRequest{Object: store.ID("acct", 4), Value: store.Int64(99), Version: 13},
	},
	KindInspect: {
		Kind:    KindInspect,
		TraceID: "c1-t2-a0",
		SpanID:  17,
		Inspect: &InspectRequest{TraceID: "c1-t2-a0", TopK: 8},
	},
	KindTxStatus: {Kind: KindTxStatus, TxID: "c1-t9-a0"},
}

// inspectEnvelope is a KindInspect reply carrying doc the way a node sends
// it: as the JSON of the document.
func inspectEnvelope(t testing.TB, doc forensics.Document) *Envelope {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return &Envelope{Seq: 11, IsResponse: true, Resp: &Response{
		Status:  StatusOK,
		Inspect: &InspectResponse{Doc: raw},
	}}
}

// documentThroughFrame takes doc the whole way a debug fetch does — document
// → JSON → frame → JSON → document — plain and compressed, and returns what
// arrived (the two must agree with the envelope, the gob oracle and each
// other).
func documentThroughFrame(t *testing.T, doc forensics.Document) forensics.Document {
	t.Helper()
	env := inspectEnvelope(t, doc)
	var got forensics.Document
	for _, compress := range []bool{false, true} {
		mustRoundTrip(t, env, compress)
		out, err := binaryRoundTrip(env, compress)
		if err != nil {
			t.Fatal(err)
		}
		got = forensics.Document{}
		if err := json.Unmarshal(out.Resp.Inspect.Doc, &got); err != nil {
			t.Fatalf("compress=%v: the frame's Doc is not the document: %v", compress, err)
		}
	}
	return got
}

// requireEveryFieldSet fails on a zero field anywhere in v, so that a field
// added to an event type has to join the fixtures below — and is then held
// to surviving the document like the rest.
func requireEveryFieldSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		if _, isTime := v.Interface().(time.Time); isTime {
			break
		}
		for i := 0; i < v.NumField(); i++ {
			requireEveryFieldSet(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			requireEveryFieldSet(t, path, v.Index(i))
		}
	}
	if v.IsZero() {
		t.Errorf("fixture leaves %s zero: the round trip would not notice it being dropped", path)
	}
}

// TestForensicsResponseRoundTrips covers the forensic half of the debug
// document through the codec: every field of every event type —
// nested slices, the Cause and Reason enums, the running totals, timestamps
// to the nanosecond — survives document → frame → document.
func TestForensicsResponseRoundTrips(t *testing.T) {
	at := time.Unix(1700000000, 42).UTC()
	full := forensics.AbortEvent{
		At: at, TxID: "c1-t4-a2", Incarnation: 2, BlockIndex: 1,
		BlockCount: 3, UnitAnchorID: 7, Key: "acct/9", Shard: 2,
		Cause:           forensics.CauseLockConflict,
		ConflictingTxID: "c2-t1-a0", Partial: true, RetryDepth: 4,
	}
	doc := forensics.Document{Forensics: forensics.Snapshot{
		Aborts: []forensics.AbortEvent{full},
		Recomposes: []forensics.RecomposeEvent{{
			At: at, Trigger: "interval", Before: "[0 1][2]", After: "[0 1 2]",
			Levels:   []forensics.AnchorLevel{{Anchor: 1, Level: 0.75}, {Anchor: 2, Level: 0.1}},
			Merges:   1,
			Reorders: 2,
			Refusals: []forensics.Refusal{{First: 1, Second: 2, Reason: forensics.RefusalSimilarity}},
			Applied:  true,
		}},
		HotKeys:         []forensics.HotKeyEvent{{At: at, Key: "acct/9", Conflicts: 17}},
		TotalAborts:     23,
		TotalRecomposes: 2,
	}}
	requireEveryFieldSet(t, "Snapshot", reflect.ValueOf(doc.Forensics))
	// And an event as sparse as a top-level commit-round abort records it.
	doc.Forensics.Aborts = append(doc.Forensics.Aborts, forensics.AbortEvent{
		At: at.Add(time.Nanosecond), TxID: "c1-t5-a0", BlockIndex: -1, BlockCount: 2,
		UnitAnchorID: -1, Shard: -1,
		Cause: forensics.CauseCommitRound,
	})

	got := documentThroughFrame(t, doc)
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("the document changed on the way:\n got %+v\nwant %+v", got, doc)
	}
	if ev := got.Forensics.Aborts; !ev[0].At.Equal(at) || !ev[1].At.Equal(at.Add(time.Nanosecond)) {
		t.Fatalf("abort timestamps moved: %v, %v", ev[0].At, ev[1].At)
	}
	if got.Forensics.Aborts[0].Cause != forensics.CauseLockConflict ||
		got.Forensics.Recomposes[0].Refusals[0].Reason != forensics.RefusalSimilarity {
		t.Fatalf("Cause / Reason did not survive the document: %+v", got.Forensics)
	}
}

// TestConflictTxMixedVersionInterop pins the compatibility story for the
// conflict-witness header on responses, in the same shape as the deadline
// test on requests:
//
//  1. A reply WITHOUT a conflict witness encodes byte-identically to what a
//     pre-forensics peer emits (the presence bit is only set for non-empty
//     ConflictTx), so old-peer frames decode here with ConflictTx == "" and
//     frames sent to an old peer carry nothing it would reject.
//  2. The bit round-trips: a Busy reply carrying the holder's tx id survives
//     encode/decode intact, including alongside a Prepare payload.
func TestConflictTxMixedVersionInterop(t *testing.T) {
	withCT := &Response{
		Status:     StatusBusy,
		ConflictTx: "c7-t3-a1",
		Prepare:    &PrepareResponse{Busy: []store.ObjectID{store.ID("acct", 9)}},
	}
	noCT := mustRoundTrip(t, &Envelope{IsResponse: true, Resp: withCT}, false).Resp
	noCT.ConflictTx = ""

	enc := func(r *Response) []byte {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf, false).Encode(&Envelope{Seq: 1, IsResponse: true, Resp: r}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	oldLayout := enc(noCT)
	newLayout := enc(withCT)
	if bytes.Equal(oldLayout, newLayout) {
		t.Fatal("conflict witness did not change the encoding")
	}

	got, err := NewBinaryDecoder(bytes.NewReader(oldLayout)).Decode()
	if err != nil {
		t.Fatalf("decode old layout: %v", err)
	}
	if got.Resp.ConflictTx != "" {
		t.Fatalf("old-layout decode invented conflict tx %q", got.Resp.ConflictTx)
	}
	if !reflect.DeepEqual(got.Resp, noCT) {
		t.Fatalf("old-layout round trip mutated the response: %+v", got.Resp)
	}

	got, err = NewBinaryDecoder(bytes.NewReader(newLayout)).Decode()
	if err != nil {
		t.Fatalf("decode new layout: %v", err)
	}
	if got.Resp.ConflictTx != withCT.ConflictTx {
		t.Fatalf("conflict tx mutated: got %q want %q", got.Resp.ConflictTx, withCT.ConflictTx)
	}
}

// TestShardMapResponseRoundTrips covers the response side of the shard-map
// RPC through the codec, including the empty "already current" reply.
func TestShardMapResponseRoundTrips(t *testing.T) {
	envs := []*Envelope{
		{Seq: 1, IsResponse: true, Resp: &Response{
			Status: StatusOK,
			ShardMap: &ShardMapResponse{
				Version: 7,
				Degree:  3,
				Groups:  [][]quorum.NodeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}},
			},
		}},
		{Seq: 2, IsResponse: true, Resp: &Response{
			Status:   StatusOK,
			ShardMap: &ShardMapResponse{Version: 7, Degree: 3},
		}},
	}
	for _, env := range envs {
		mustRoundTrip(t, env, false)
	}
}

// TestEveryKindRoundTrips drives each request kind through the codec, both
// compressed and not, and checks the decoded message is structurally
// identical and agrees with the gob oracle. Because it iterates
// [0, numKinds), adding a new wire.Kind without a fixture — or without
// binary marshaling support (the encoder rejects kinds it does not know) —
// fails here. The retired value is skipped by name and must be refused in
// both directions.
func TestEveryKindRoundTrips(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k == kindRetired {
			if _, err := AppendEnvelope(nil, &Envelope{Req: &Request{Kind: k}}); err == nil {
				t.Fatalf("the encoder accepts the retired kind %d", k)
			}
			if _, err := DecodeEnvelope([]byte{1, envHasReq, byte(k), 0, 0, 0, 0}); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode of the retired kind %d: got %v, want ErrBadFrame", k, err)
			}
			continue
		}
		req, ok := kindFixtures[k]
		if !ok {
			t.Fatalf("Kind %d (%s) has no round-trip fixture: a new request kind "+
				"was added without codec coverage", k, k)
		}
		if req.Kind != k {
			t.Fatalf("fixture for Kind %d (%s) declares Kind %d", k, k, req.Kind)
		}
		for _, compress := range []bool{false, true} {
			mustRoundTrip(t, &Envelope{Seq: uint64(k) + 1, Req: req}, compress)
		}
	}
}

// TestTraceFetchResponseRoundTrips covers the span half of the debug
// document: spans carry time.Time fields — this pins that document → frame →
// document preserves them to the nanosecond, with every other field.
func TestTraceFetchResponseRoundTrips(t *testing.T) {
	start := time.Unix(1700000000, 123456789).UTC()
	doc := forensics.Document{Spans: []trace.Span{{
		Trace: "c1-t2-a0", ID: 1<<63 + 5, Parent: 3,
		Name: "serve-read", Site: "node-1",
		Start: start, End: start.Add(42 * time.Microsecond),
		Detail: "acct/7",
	}}}
	requireEveryFieldSet(t, "Span", reflect.ValueOf(doc.Spans))

	got := documentThroughFrame(t, doc)
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("the document changed on the way:\n got %+v\nwant %+v", got, doc)
	}
	gs := got.Spans[0]
	if !gs.Start.Equal(start) || !gs.End.Equal(start.Add(42*time.Microsecond)) {
		t.Fatalf("span times mutated: %+v", gs)
	}
}

// TestEveryStatusHasAString keeps Status printable as the enum grows (a new
// status falling through to "error" would make failure triage misleading).
func TestEveryStatusHasAString(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusBusy, StatusNotFound, StatusError, StatusUnavailable, StatusOverloaded} {
		if s.String() == "" {
			t.Fatalf("Status %d has empty String()", s)
		}
	}
	if StatusUnavailable.String() != "unavailable" {
		t.Fatalf("StatusUnavailable prints %q", StatusUnavailable.String())
	}
	if StatusOverloaded.String() != "overloaded" {
		t.Fatalf("StatusOverloaded prints %q", StatusOverloaded.String())
	}
}

// TestStatusOverloadedRoundTrips pins the new backpressure status through
// the codec on a response envelope (the varint status encoding makes this
// nearly free, but a decoder that validated against the old status range
// would reject it — this is the mixed-version smoke for the status side).
func TestStatusOverloadedRoundTrips(t *testing.T) {
	env := &Envelope{
		Seq:        3,
		IsResponse: true,
		Resp:       &Response{Status: StatusOverloaded, Detail: "admission queue full"},
	}
	mustRoundTrip(t, env, false)
}

// TestForwardedDecisionSharesTheCommitByte: a forwarded outcome is a
// KindDecision whose leading byte also has bit1 set. A coordinator's decision,
// which never sets it, keeps the byte a plain Commit bool was, and the flag
// survives the codec for both outcomes.
func TestForwardedDecisionSharesTheCommitByte(t *testing.T) {
	for _, commit := range []bool{false, true} {
		coord := mustRoundTrip(t, &Envelope{Req: kindFixtures[KindDecision]}, false).Req
		coord.Decision.Commit = commit
		fwd := mustRoundTrip(t, &Envelope{Req: coord}, false).Req
		fwd.Decision.Forwarded = true

		a, err := AppendEnvelope(nil, &Envelope{Seq: 1, Req: coord})
		if err != nil {
			t.Fatal(err)
		}
		b, err := AppendEnvelope(nil, &Envelope{Seq: 1, Req: fwd})
		if err != nil {
			t.Fatal(err)
		}
		var diff []int
		for i := range a {
			if a[i] != b[i] {
				diff = append(diff, i)
			}
		}
		want := byte(0)
		if commit {
			want = 1
		}
		if len(a) != len(b) || len(diff) != 1 || a[diff[0]] != want || b[diff[0]] != want|2 {
			t.Fatalf("commit=%v: coordinator % x vs forwarded % x: want one byte apart, %#x vs %#x", commit, a, b, want, want|2)
		}
		for _, req := range []*Request{coord, fwd} {
			mustRoundTrip(t, &Envelope{Seq: 2, Req: req}, false)
		}
	}
}

// TestDeadlineMixedVersionInterop pins the compatibility story for the
// deadline header field in the binary codec:
//
//  1. Forward: a request WITHOUT a deadline encodes byte-identically to what
//     a pre-deadline peer emits (the presence bit is only set for non-zero
//     deadlines), so an old peer's frames — which can never carry the bit —
//     decode here with Deadline == 0, and frames sent to an old peer carry
//     nothing it would reject.
//  2. The bit itself round-trips: stripping the deadline from a fixture and
//     re-encoding removes exactly the mask bit and the varint payload.
func TestDeadlineMixedVersionInterop(t *testing.T) {
	withDL := kindFixtures[KindRead]
	if withDL.Deadline == 0 {
		t.Fatal("fixture must carry a deadline for this test")
	}
	noDL := mustRoundTrip(t, &Envelope{Req: withDL}, false).Req
	noDL.Deadline = 0

	enc := func(r *Request) []byte {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf, false).Encode(&Envelope{Seq: 1, Req: r}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	oldLayout := enc(noDL)
	newLayout := enc(withDL)
	if bytes.Equal(oldLayout, newLayout) {
		t.Fatal("deadline did not change the encoding")
	}

	// An "old peer" frame (no deadline bit) decodes with a zero deadline and
	// no trailing-byte error.
	got, err := NewBinaryDecoder(bytes.NewReader(oldLayout)).Decode()
	if err != nil {
		t.Fatalf("decode old layout: %v", err)
	}
	if got.Req.Deadline != 0 {
		t.Fatalf("old-layout decode invented deadline %d", got.Req.Deadline)
	}
	if !reflect.DeepEqual(got.Req, noDL) {
		t.Fatalf("old-layout round trip mutated the request: %+v", got.Req)
	}

	// The new layout round-trips with the deadline intact.
	got, err = NewBinaryDecoder(bytes.NewReader(newLayout)).Decode()
	if err != nil {
		t.Fatalf("decode new layout: %v", err)
	}
	if got.Req.Deadline != withDL.Deadline {
		t.Fatalf("deadline mutated: got %d want %d", got.Req.Deadline, withDL.Deadline)
	}
}
