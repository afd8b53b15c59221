package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

func echoHandler(_ context.Context, req *wire.Request) *wire.Response {
	return &wire.Response{Status: wire.StatusOK, Detail: req.TxID}
}

func TestChannelCall(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{})
	n.Register(0, echoHandler)
	resp, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing, TxID: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Detail != "hello" {
		t.Fatalf("Detail = %q", resp.Detail)
	}
}

func TestChannelUnknownNode(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{})
	_, err := n.Call(context.Background(), 7, &wire.Request{Kind: wire.KindPing})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestChannelDownNode(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{})
	n.Register(0, echoHandler)
	n.SetDown(0, true)
	if n.Alive(0) {
		t.Fatal("Alive(0) = true after SetDown")
	}
	_, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	n.SetDown(0, false)
	if _, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

func TestChannelClose(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{})
	n.Register(0, echoHandler)
	n.Close()
	if _, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestChannelLatency(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Latency: 5 * time.Millisecond, Seed: 1})
	n.Register(0, echoHandler)
	start := time.Now()
	if _, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 10ms (two hops)", d)
	}
}

func TestChannelContextCancellation(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Latency: time.Second, Seed: 1})
	n.Register(0, echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := n.Call(ctx, 0, &wire.Request{Kind: wire.KindPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestChannelIsolatesMessages(t *testing.T) {
	// The server mutates the request it receives and returns a value that it
	// then mutates; neither side must observe the other's changes.
	var serverHeld *wire.Response
	n := NewChannelNetwork(ChannelConfig{})
	n.Register(0, func(_ context.Context, req *wire.Request) *wire.Response {
		req.Read.Validate[0].Version = 999 // must not be visible to caller
		resp := &wire.Response{
			Status: wire.StatusOK,
			Read:   &wire.ReadResponse{Value: store.Bytes{1}, Version: 1},
		}
		serverHeld = resp
		return resp
	})
	req := &wire.Request{
		Kind: wire.KindRead,
		Read: &wire.ReadRequest{Object: "o", Validate: []store.ReadDesc{{ID: "a", Version: 1}}},
	}
	resp, err := n.Call(context.Background(), 0, req)
	if err != nil {
		t.Fatal(err)
	}
	if req.Read.Validate[0].Version != 1 {
		t.Fatal("server mutation leaked into the caller's request")
	}
	serverHeld.Read.Value.(store.Bytes)[0] = 9
	if resp.Read.Value.(store.Bytes)[0] != 1 {
		t.Fatal("server kept a live reference to the caller's response")
	}
}

func TestChannelConcurrentCalls(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 42})
	var count atomic.Int64
	n.Register(0, func(_ context.Context, req *wire.Request) *wire.Response {
		count.Add(1)
		return &wire.Response{Status: wire.StatusOK}
	})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if count.Load() != 50 {
		t.Fatalf("handled %d calls, want 50", count.Load())
	}
}

func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		list string
		want map[quorum.NodeID]string // nil: rejected
	}{
		{"a,b", map[quorum.NodeID]string{0: "a", 1: "b"}},
		{" a , b ", map[quorum.NodeID]string{0: "a", 1: "b"}},
		{"", nil},
		{"a,,b", nil},
		{"a,b,", nil},
	} {
		got, err := ParseAddrs(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseAddrs(%q) = %v, want an error", tc.list, got)
			}
			continue
		}
		if err != nil || !maps.Equal(got, tc.want) {
			t.Errorf("ParseAddrs(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}

func startTCPPair(t *testing.T, h Handler) (*TCPClient, func()) {
	t.Helper()
	srv := NewTCPServer(h, true)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient(map[quorum.NodeID]string{0: addr}, true)
	return cli, func() {
		cli.Close()
		srv.Close()
	}
}

func TestTCPRoundTrip(t *testing.T) {
	cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{
			Status: wire.StatusOK,
			Read:   &wire.ReadResponse{Value: store.Int64(11), Version: 3},
		}
	})
	defer stop()
	resp, err := cli.Call(context.Background(), 0, &wire.Request{
		Kind: wire.KindRead,
		Read: &wire.ReadRequest{Object: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.AsInt64(resp.Read.Value) != 11 || resp.Read.Version != 3 {
		t.Fatalf("resp = %+v", resp.Read)
	}
}

func TestTCPConcurrentMultiplexing(t *testing.T) {
	cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
		// Reply with the request's TxID so we can verify responses are
		// matched to the right caller despite arbitrary interleaving.
		time.Sleep(time.Millisecond)
		return &wire.Response{Status: wire.StatusOK, Detail: req.TxID}
	})
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("tx-%d", i)
			resp, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing, TxID: id})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Detail != id {
				t.Errorf("response for %s got %s", id, resp.Detail)
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPUnknownNode(t *testing.T) {
	cli := NewTCPClient(map[quorum.NodeID]string{}, false)
	defer cli.Close()
	_, err := cli.Call(context.Background(), 3, &wire.Request{Kind: wire.KindPing})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	cli := NewTCPClient(map[quorum.NodeID]string{0: "127.0.0.1:1"}, false)
	defer cli.Close()
	_, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

func TestTCPServerShutdownUnblocksCallers(t *testing.T) {
	block := make(chan struct{})
	srv := NewTCPServer(func(_ context.Context, req *wire.Request) *wire.Response {
		<-block
		return &wire.Response{Status: wire.StatusOK}
	}, false)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient(map[quorum.NodeID]string{0: addr}, false)
	defer cli.Close()

	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(block) // let the in-flight handler finish so Close doesn't hang
	srv.Close()
	select {
	case err := <-done:
		// Either a normal reply (handler finished before teardown) or a
		// connection error is acceptable; hanging is not.
		_ = err
	case <-time.After(2 * time.Second):
		t.Fatal("caller still blocked after server close")
	}
}

func TestTCPReconnectAfterServerRestart(t *testing.T) {
	srv := NewTCPServer(echoHandler, false)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient(map[quorum.NodeID]string{0: addr}, false)
	defer cli.Close()
	if _, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := NewTCPServer(echoHandler, false)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The first call(s) may hit the dead connection; the client must
	// re-dial and succeed shortly after.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPMultiServerRouting(t *testing.T) {
	// Three servers, each answering with its own tag: the client must route
	// by node ID.
	addrs := map[quorum.NodeID]string{}
	var servers []*TCPServer
	for i := 0; i < 3; i++ {
		tag := fmt.Sprintf("node-%d", i)
		srv := NewTCPServer(func(_ context.Context, req *wire.Request) *wire.Response {
			return &wire.Response{Status: wire.StatusOK, Detail: tag}
		}, false)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[quorum.NodeID(i)] = addr
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	cli := NewTCPClient(addrs, false)
	defer cli.Close()
	for i := 0; i < 3; i++ {
		resp, err := cli.Call(context.Background(), quorum.NodeID(i), &wire.Request{Kind: wire.KindPing})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("node-%d", i); resp.Detail != want {
			t.Fatalf("node %d answered %q", i, resp.Detail)
		}
	}
}

func TestTCPLargeCompressedPayload(t *testing.T) {
	// A value far above the compression threshold must survive the
	// compressed TCP path intact.
	big := make(store.Bytes, 256<<10)
	for i := range big {
		big[i] = byte(i % 251)
	}
	cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{
			Status: wire.StatusOK,
			Read:   &wire.ReadResponse{Value: big, Version: 1},
		}
	})
	defer stop()
	resp, err := cli.Call(context.Background(), 0, &wire.Request{
		Kind: wire.KindRead, Read: &wire.ReadRequest{Object: "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Read.Value.(store.Bytes)
	if len(got) != len(big) {
		t.Fatalf("len = %d, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}
