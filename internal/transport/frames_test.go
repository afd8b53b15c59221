package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// hotPathFrames are the frames a TCPClient writes after its preamble for the
// messages transactions send: a read (validating two earlier reads and
// piggybacking a stats query), a traced prepare, a coordinator's commit
// decision, a two-read batch (the deprecated envelope the read-ahead used to
// send) and the multi-object read that replaced it. The first four were
// captured before the stats query and the forwarded decision lost kinds of
// their own, and must not move: a change that only renumbers or deletes other
// kinds keeps the hot path byte-identical.
var hotPathFrames = []struct {
	name string
	req  *wire.Request
	hex  string
}{
	{"read", &wire.Request{
		Kind: wire.KindRead, TxID: "c1-t42-a0", Deadline: hotPathDeadline,
		Read: &wire.ReadRequest{
			Object:   store.ID("district", 0, 1),
			Validate: hotPathReads,
			StatsFor: []store.ObjectID{store.ID("district", 0, 1)},
		},
	}, "0000004d00fae32ab9" +
		"0004000963312d7434322d6130000081100c64697374726963742f302f31020973746f636b2f302f30010973746f636b2f302f3102010c64697374726963742f302f3100aab4aed8c7bfce972f"},
	{"prepare", &wire.Request{
		Kind: wire.KindPrepare, TxID: "c1-t42-a0", TraceID: "tr-9", SpanID: 77, Deadline: hotPathDeadline,
		Prepare: &wire.PrepareRequest{Reads: hotPathReads, Writes: hotPathWrites, Quorum: []quorum.NodeID{0, 1, 3}},
	}, "0000004d0031b72da8" +
		"0104010963312d7434322d61300474722d394d8210020973746f636b2f302f30010973746f636b2f302f3102010973746f636b2f302f300502010e01d804020203000206aab4aed8c7bfce972f"},
	{"commit decision", &wire.Request{
		Kind: wire.KindDecision, TxID: "c1-t42-a0",
		Decision: &wire.DecisionRequest{Commit: true, Writes: hotPathWrites,
			Release: []store.ObjectID{store.ID("stock", 0, 0), store.ID("stock", 0, 1)}},
	}, "0000003a00538aedf5" +
		"0204020963312d7434322d613000000401010973746f636b2f302f300502010e01d8040202020973746f636b2f302f300973746f636b2f302f31"},
	{"batch", &wire.Request{
		Kind: wire.KindBatch, TxID: "c1-t43-a0",
		Batch: &wire.BatchRequest{Subs: []*wire.Request{
			{Kind: wire.KindRead, TxID: "c1-t43-a0", Deadline: hotPathDeadline,
				Read: &wire.ReadRequest{Object: store.ID("item", 7)}},
			{Kind: wire.KindRead, TxID: "c1-t43-a0", Deadline: hotPathDeadline,
				Read: &wire.ReadRequest{Object: store.ID("item", 9)}},
		}},
	}, "00000057001d6a823d" +
		"0304060963312d7434332d61300000200201000963312d7434332d613000008110066974656d2f37000000aab4aed8c7bfce972f01000963312d7434332d613000008110066974656d2f39000000aab4aed8c7bfce972f"},
	{"multi-object read", &wire.Request{
		Kind: wire.KindRead, TxID: "c1-t44-a0", Deadline: hotPathDeadline,
		Read: &wire.ReadRequest{
			Object:   store.ID("stock", 0, 0),
			More:     []store.ObjectID{store.ID("stock", 0, 1), store.ID("item", 7)},
			Validate: hotPathReads[:1],
		},
	}, "00000044009908e32a" +
		"0404000963312d7434342d6130000081300973746f636b2f302f30010973746f636b2f302f30010000aab4aed8c7bfce972f020973746f636b2f302f31066974656d2f37"},
}

const hotPathDeadline = 1_700_000_000_123_456_789

var (
	hotPathReads = []store.ReadDesc{
		{ID: store.ID("stock", 0, 0), Version: 1},
		{ID: store.ID("stock", 0, 1), Version: 2},
	}
	hotPathWrites = []store.WriteDesc{
		{ID: store.ID("stock", 0, 0), Value: store.Tuple{store.Int64(7), store.Int64(300)}, NewVersion: 2, Block: 1},
	}
)

// TestTCPHotPathFramesUnchanged pins, byte for byte, what a TCPClient puts on
// the wire for the transaction messages, as TestTCPClientOpeningBytes does
// for the opening ping. The test plays the server: it reads each frame raw
// and answers it so the client sends the next one.
func TestTCPHotPathFramesUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli := NewTCPClient(map[quorum.NodeID]string{0: ln.Addr().String()}, false)
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for _, f := range hotPathFrames {
			if _, err := cli.Call(ctx, 0, f.req); err != nil {
				return
			}
		}
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var opened [2]byte
	if _, err := io.ReadFull(conn, opened[:]); err != nil || opened != preamble {
		t.Fatalf("opening % x, err %v", opened, err)
	}
	reply := wire.NewBinaryEncoder(conn, false)
	for _, f := range hotPathFrames {
		frame := make([]byte, 9)
		if _, err := io.ReadFull(conn, frame); err != nil {
			t.Fatalf("%s: header: %v", f.name, err)
		}
		frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame))...)
		if _, err := io.ReadFull(conn, frame[9:]); err != nil {
			t.Fatalf("%s: payload: %v", f.name, err)
		}
		if want, _ := hex.DecodeString(f.hex); !bytes.Equal(frame, want) {
			t.Errorf("%s frame moved:\n  got  %x\n  want %s", f.name, frame, f.hex)
		}
		env, err := wire.DecodeEnvelope(frame[9:])
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := reply.Encode(&wire.Envelope{Seq: env.Seq, IsResponse: true, Resp: &wire.Response{Status: wire.StatusOK}}); err != nil {
			t.Fatal(err)
		}
	}
}
