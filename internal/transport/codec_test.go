package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/raceflag"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// pingFrame is the first thing a TCPClient writes for
// Call(0, {Kind: KindPing, TxID: "pin-1"}): the two preamble bytes, then one
// binary frame (length 12, no flags, CRC-32C, payload). The frame was
// captured from the commit before gob left production (PR 12) and no change
// since may move a byte of it; the preamble's version byte is 0x04 since
// KindShardMap took over kind 3.
var pingFrame = []byte{
	0xc6, 0x04,
	0x00, 0x00, 0x00, 0x0c, 0x00, 0xe1, 0x47, 0xb6, 0x1d,
	0x00, 0x04, 0x04, 0x05, 'p', 'i', 'n', '-', '1', 0x00, 0x00, 0x00,
}

// TestTCPClientOpeningBytes pins the surviving wire path byte for byte.
func TestTCPClientOpeningBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli := NewTCPClient(map[quorum.NodeID]string{0: ln.Addr().String()}, false)
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cli.Call(ctx, 0, &wire.Request{Kind: wire.KindPing, TxID: "pin-1"})

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(pingFrame))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read after % x: %v", got, err)
	}
	if !bytes.Equal(got, pingFrame) {
		t.Fatalf("client opened with\n  % x\nwant\n  % x", got, pingFrame)
	}
}

// gobEraRequest is what a pre-binary client put on a fresh connection: no
// preamble, a 4-byte length and a flag byte, then a gob-encoded envelope.
func gobEraRequest(t *testing.T) []byte {
	t.Helper()
	var body bytes.Buffer
	env := &wire.Envelope{Seq: 1, Req: &wire.Request{Kind: wire.KindPing, TxID: "legacy"}}
	if err := gob.NewEncoder(&body).Encode(env); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, uint32(body.Len()))
	return append(hdr, body.Bytes()...)
}

// TestTCPServerRefusesOtherPreambles: a connection that does not open with
// the version preamble is closed before any handler runs — a gob-era client
// (whose first byte is the top of a length, so <= 0x04), a client announcing
// a version this build does not know, and ones announcing the two previous
// versions, whose kind 8 (0x02) and kind 3 (0x03) were different messages —
// and the server goes on serving connections that do.
func TestTCPServerRefusesOtherPreambles(t *testing.T) {
	var handled atomic.Int64
	srv := NewTCPServer(func(ctx context.Context, req *wire.Request) *wire.Response {
		handled.Add(1)
		return echoHandler(ctx, req)
	}, false)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	legacy := gobEraRequest(t)
	if legacy[0] > 0x04 {
		t.Fatalf("gob-era stream starts with %#x", legacy[0])
	}
	for name, opening := range map[string][]byte{
		"gob-era stream":  legacy,
		"unknown version": append([]byte{0xC6, 0x7F}, pingFrame[2:]...),
		"version 0x02":    append([]byte{0xC6, 0x02}, pingFrame[2:]...),
		"version 0x03":    append([]byte{0xC6, 0x03}, pingFrame[2:]...),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opening); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The server may close with our bytes unread, which TCP reports as a
		// reset instead of EOF; either way it must answer nothing.
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: read %d bytes, err %v; want the connection closed", name, n, err)
		}
		conn.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for refused connections", n)
	}

	cli := NewTCPClient(map[quorum.NodeID]string{0: addr}, false)
	defer cli.Close()
	resp, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing, TxID: "after"})
	if err != nil || resp.Detail != "after" {
		t.Fatalf("server stopped serving after refusals: resp %+v, err %v", resp, err)
	}
}

// TestTCPClientClassifiesNonBinaryPeer: a peer that answers in anything but
// binary frames fails the call with ErrKindDecode — the kind internal/health
// reads as "the codec rejected a frame", not as a dead node — instead of
// leaving it to hang.
func TestTCPClientClassifiesNonBinaryPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reply := append(gobEraRequest(t), make([]byte, 64)...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(reply)
		io.Copy(io.Discard, conn) // hold the connection open until the client gives up
	}()

	cli := NewTCPClient(map[quorum.NodeID]string{0: ln.Addr().String()}, false)
	cli.SetRetryPolicy(RetryPolicy{MaxRetries: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = cli.Call(ctx, 0, &wire.Request{Kind: wire.KindPing})
	var te *Error
	if !errors.As(err, &te) || te.Kind != ErrKindDecode {
		t.Fatalf("err = %v, want a *transport.Error of kind %s", err, ErrKindDecode)
	}
	cli.Close()
	<-done
}

// TestTCPBinaryCompressedPayload pushes a payload past CompressThreshold
// through the binary codec in both directions — a large prepare out, a large
// debug document back — so the compressed-frame path (flags bit +
// post-compression CRC) is exercised end to end.
func TestTCPBinaryCompressedPayload(t *testing.T) {
	writes := make([]store.WriteDesc, 256)
	for i := range writes {
		writes[i] = store.WriteDesc{
			ID:         store.ID("warehouse/stock", i),
			Value:      store.String("districtdistrictdistrict"),
			NewVersion: uint64(i),
		}
	}
	doc := bytes.Repeat([]byte(`{"name":"serve-prepare","site":"node-0"},`), 256)
	cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
		if !reflect.DeepEqual(req.Prepare.Writes, writes) {
			return &wire.Response{Status: wire.StatusError, Detail: fmt.Sprintf("%d writes arrived wrong", len(req.Prepare.Writes))}
		}
		return &wire.Response{Status: wire.StatusOK, Inspect: &wire.InspectResponse{Doc: doc}}
	})
	defer stop()
	resp, err := cli.Call(context.Background(), 0, &wire.Request{
		Kind: wire.KindPrepare, TxID: "big",
		Prepare: &wire.PrepareRequest{Writes: writes},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("request direction: %s (%s)", resp.Status, resp.Detail)
	}
	if resp.Inspect == nil || !bytes.Equal(resp.Inspect.Doc, doc) {
		t.Fatal("the large reply round-tripped wrong")
	}
}

// TestChannelCodecMode checks that a message crosses the channel network by
// encode and decode, as every message does (the deprecated Codec field is
// ignored): a handler's mutation never reaches the caller, nothing crosses by
// reference, and payloads are preserved.
func TestChannelCodecMode(t *testing.T) {
	var got *wire.Request
	n := NewChannelNetwork(ChannelConfig{Codec: wire.Binary})
	n.Register(3, func(_ context.Context, req *wire.Request) *wire.Response {
		got = req
		req.TxID = "mutated-server-side"
		return &wire.Response{Status: wire.StatusOK, Read: &wire.ReadResponse{Value: store.Int64(9), Version: 1}}
	})
	req := &wire.Request{
		Kind: wire.KindRead, TxID: "iso",
		Read: &wire.ReadRequest{Object: store.ID("acct", 5), Validate: []store.ReadDesc{{ID: "x", Version: 2}}},
	}
	resp, err := n.Call(context.Background(), 3, req)
	if err != nil {
		t.Fatal(err)
	}
	if req.TxID != "iso" {
		t.Fatal("server-side mutation leaked back to the caller")
	}
	if got == req || got.Read == req.Read {
		t.Fatal("request crossed the boundary by reference")
	}
	if resp.Read.Value != store.Int64(9) || resp.Read.Version != 1 {
		t.Fatalf("response mutated: %+v", resp.Read)
	}
}

// TestChannelCodecModeConcurrent hammers one destination from many
// goroutines: the pooled encode buffers must not leak one call's bytes into
// another's.
func TestChannelCodecModeConcurrent(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Codec: wire.Binary})
	n.Register(0, echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txid := fmt.Sprintf("tx-%d", i)
			resp, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing, TxID: txid})
			if err != nil {
				errs <- err
				return
			}
			if resp.Detail != txid {
				errs <- fmt.Errorf("call %d got %q", i, resp.Detail)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChannelRoundTripAllocs pins what one message pair costs the allocator
// when the channel network really serializes (ChannelConfig.Codec): the two
// decoded graphs and the handler's reply, nothing per hop and nothing per
// string. It was 19 with a string per decoded ID and an envelope per decode.
func TestChannelRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation ceilings measure the race detector under -race")
	}
	n := NewChannelNetwork(ChannelConfig{Seed: 1, Codec: wire.Binary})
	defer n.Close()
	n.Register(0, func(context.Context, *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK, Read: &wire.ReadResponse{Value: store.Int64(1), Version: 3}}
	})
	validate := make([]store.ReadDesc, 8)
	for i := range validate {
		validate[i] = store.ReadDesc{ID: store.ID("stock", 0, i), Version: uint64(i + 1)}
	}
	req := &wire.Request{Kind: wire.KindRead, TxID: "c1-t42-a0",
		Read: &wire.ReadRequest{Object: store.ID("district", 0, 1), Validate: validate}}
	ctx := context.Background()
	call := func() {
		if _, err := n.Call(ctx, 0, req); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm the encode buffers
	// Request: envelope+request, frame copy, read payload, validate list;
	// handler: response, read payload; reply: envelope+response, read payload.
	if allocs := testing.AllocsPerRun(200, call); allocs > 10 {
		t.Errorf("channel round trip with wire.Binary: %.1f allocs, want <= 10", allocs)
	}
}
