package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

func batchOf(n int) *wire.Request {
	subs := make([]*wire.Request, n)
	for i := range subs {
		subs[i] = &wire.Request{Kind: wire.KindPing, TxID: fmt.Sprintf("sub-%d", i)}
	}
	return &wire.Request{Kind: wire.KindBatch, Batch: &wire.BatchRequest{Subs: subs}}
}

// TestTCPBatchRoundTrip: the deprecated KindBatch envelope, which no node
// serves any more, still crosses a TCP connection whole while its codec
// stays.
func TestTCPBatchRoundTrip(t *testing.T) {
	cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
		if req.Kind != wire.KindBatch {
			return &wire.Response{Status: wire.StatusError, Detail: "want batch"}
		}
		subs := make([]*wire.Response, len(req.Batch.Subs))
		for i, sub := range req.Batch.Subs {
			subs[i] = &wire.Response{Status: wire.StatusOK, Detail: "echo:" + sub.TxID}
		}
		return &wire.Response{Status: wire.StatusOK, Batch: &wire.BatchResponse{Subs: subs}}
	})
	defer stop()
	resp, err := cli.Call(context.Background(), 0, batchOf(5))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.Batch == nil || len(resp.Batch.Subs) != 5 {
		t.Fatalf("resp = %+v", resp)
	}
	for i, sub := range resp.Batch.Subs {
		if want := fmt.Sprintf("echo:sub-%d", i); sub.Detail != want {
			t.Fatalf("sub %d = %q, want %q", i, sub.Detail, want)
		}
	}
}

func TestTCPCancelFrameCancelsServerHandler(t *testing.T) {
	// Cancelling the client context while a request is in flight must (a)
	// fail the call with the context error and (b) propagate cancellation to
	// the server-side handler through a cancel frame.
	entered := make(chan struct{}, 1)
	observed := make(chan error, 1)
	cli, stop := startTCPPair(t, func(ctx context.Context, req *wire.Request) *wire.Response {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			observed <- ctx.Err()
		case <-time.After(5 * time.Second):
			observed <- nil
		}
		return &wire.Response{Status: wire.StatusOK}
	})
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, 0, &wire.Request{Kind: wire.KindPing})
		done <- err
	}()
	<-entered
	cancel()

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Call err = %v, want context.Canceled", err)
	}
	select {
	case err := <-observed:
		if err == nil {
			t.Fatal("server handler never observed cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server handler still blocked after cancel frame")
	}
}

func TestTCPRetryCountingOnReconnect(t *testing.T) {
	srv := NewTCPServer(echoHandler, false)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient(map[quorum.NodeID]string{0: addr}, false)
	defer cli.Close()
	var mirror atomic.Uint64
	cli.SetRetryCounter(&mirror)

	if _, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	if cli.Retries() != 0 {
		t.Fatalf("retries after clean call = %d", cli.Retries())
	}
	srv.Close()

	srv2 := NewTCPServer(echoHandler, false)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cli.Retries() == 0 {
		t.Fatal("reconnect left the retry counter at zero")
	}
	if mirror.Load() != cli.Retries() {
		t.Fatalf("mirror = %d, internal = %d", mirror.Load(), cli.Retries())
	}
}

func TestTCPRetryDisabled(t *testing.T) {
	cli := NewTCPClient(map[quorum.NodeID]string{0: "127.0.0.1:1"}, false)
	defer cli.Close()
	cli.SetRetryPolicy(RetryPolicy{MaxRetries: -1})
	start := time.Now()
	if _, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if cli.Retries() != 0 {
		t.Fatalf("retries = %d, want 0 with retries disabled", cli.Retries())
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("disabled retries still backed off for %v", d)
	}
}
