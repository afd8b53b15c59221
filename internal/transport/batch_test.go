package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
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

func TestHandleBatchPreservesOrder(t *testing.T) {
	h := func(_ context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK, Detail: req.TxID}
	}
	resp := HandleBatch(context.Background(), h, batchOf(8))
	if resp.Status != wire.StatusOK || resp.Batch == nil {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Batch.Subs) != 8 {
		t.Fatalf("got %d sub-responses, want 8", len(resp.Batch.Subs))
	}
	for i, sub := range resp.Batch.Subs {
		if want := fmt.Sprintf("sub-%d", i); sub.Detail != want {
			t.Fatalf("sub %d answered %q, want %q", i, sub.Detail, want)
		}
	}
}

func TestHandleBatchDispatchesConcurrently(t *testing.T) {
	// Every sub-handler blocks until all of them have started: the batch can
	// only complete if dispatch is concurrent.
	const n = 6
	var mu sync.Mutex
	started := 0
	allIn := make(chan struct{})
	h := func(ctx context.Context, req *wire.Request) *wire.Response {
		mu.Lock()
		started++
		if started == n {
			close(allIn)
		}
		mu.Unlock()
		select {
		case <-allIn:
			return &wire.Response{Status: wire.StatusOK}
		case <-time.After(2 * time.Second):
			return &wire.Response{Status: wire.StatusError, Detail: "timed out waiting for siblings"}
		}
	}
	resp := HandleBatch(context.Background(), h, batchOf(n))
	for i, sub := range resp.Batch.Subs {
		if sub.Status != wire.StatusOK {
			t.Fatalf("sub %d: %+v (dispatch not concurrent?)", i, sub)
		}
	}
}

// goid reads the calling goroutine's ID off its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestHandleBatchRunsReadsInline: a read never waits, so the reads of a batch
// run one after the other on the goroutine that called HandleBatch, in order,
// between sub-requests of other kinds that keep their own goroutines; one
// that has not started when the context ends is answered cancelled.
func TestHandleBatchRunsReadsInline(t *testing.T) {
	batch := batchOf(8) // pings
	for _, i := range []int{0, 2, 3, 5, 6} {
		batch.Batch.Subs[i].Kind = wire.KindRead
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	caller := goid()
	var readOrder []string // unguarded on purpose: the reads share one goroutine
	h := func(_ context.Context, req *wire.Request) *wire.Response {
		if req.Kind != wire.KindRead {
			if goid() == caller {
				return &wire.Response{Status: wire.StatusError, Detail: "a kind that may wait ran on the caller's goroutine"}
			}
			return &wire.Response{Status: wire.StatusOK, Detail: req.TxID}
		}
		if goid() != caller {
			return &wire.Response{Status: wire.StatusError, Detail: "read ran on a goroutine of its own"}
		}
		readOrder = append(readOrder, req.TxID)
		if req.TxID == "sub-3" {
			cancel() // sub-5 and sub-6 have not started
		}
		return &wire.Response{Status: wire.StatusOK, Detail: req.TxID}
	}
	resp := HandleBatch(ctx, h, batch)
	if got, want := strings.Join(readOrder, " "), "sub-0 sub-2 sub-3"; got != want {
		t.Fatalf("reads ran as %q, want %q", got, want)
	}
	for i, sub := range resp.Batch.Subs {
		switch {
		case i == 5 || i == 6:
			if sub.Status != wire.StatusError || !strings.Contains(sub.Detail, "cancelled") {
				t.Errorf("read %d, not started when the context ended: %+v, want cancelled", i, sub)
			}
		case batch.Batch.Subs[i].Kind == wire.KindRead:
			if sub.Status != wire.StatusOK || sub.Detail != fmt.Sprintf("sub-%d", i) {
				t.Errorf("read %d answered %+v", i, sub)
			}
		default:
			// A ping races the cancellation: it ran, or it was cancelled first;
			// either way its answer sits in its own slot.
			if sub.Status == wire.StatusOK && sub.Detail != fmt.Sprintf("sub-%d", i) ||
				sub.Status != wire.StatusOK && !strings.Contains(sub.Detail, "cancelled") {
				t.Errorf("ping %d answered %+v", i, sub)
			}
		}
	}
}

func TestHandleBatchRejectsNestedAndNil(t *testing.T) {
	h := func(_ context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	}
	req := &wire.Request{Kind: wire.KindBatch, Batch: &wire.BatchRequest{Subs: []*wire.Request{
		nil,
		batchOf(1),
		{Kind: wire.KindPing},
	}}}
	resp := HandleBatch(context.Background(), h, req)
	if resp.Batch.Subs[0].Status != wire.StatusError {
		t.Fatalf("nil sub = %+v, want error", resp.Batch.Subs[0])
	}
	if resp.Batch.Subs[1].Status != wire.StatusError {
		t.Fatalf("nested batch = %+v, want error", resp.Batch.Subs[1])
	}
	if resp.Batch.Subs[2].Status != wire.StatusOK {
		t.Fatalf("plain sub = %+v, want ok", resp.Batch.Subs[2])
	}
}

func TestHandleBatchCancellationReachesSubRequests(t *testing.T) {
	// In-flight sub-handlers must observe ctx.Done when the caller cancels
	// mid-batch.
	const n = 4
	entered := make(chan struct{}, n)
	h := func(ctx context.Context, req *wire.Request) *wire.Response {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			return &wire.Response{Status: wire.StatusError, Detail: "handler cancelled"}
		case <-time.After(5 * time.Second):
			return &wire.Response{Status: wire.StatusOK, Detail: "never cancelled"}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *wire.Response, 1)
	go func() { done <- HandleBatch(ctx, h, batchOf(n)) }()
	for i := 0; i < n; i++ {
		<-entered // all subs are in flight
	}
	cancel()
	select {
	case resp := <-done:
		for i, sub := range resp.Batch.Subs {
			if sub.Status != wire.StatusError || !strings.Contains(sub.Detail, "cancelled") {
				t.Fatalf("sub %d = %+v, want cancelled error", i, sub)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch still blocked after cancellation")
	}
}

func TestTCPBatchRoundTrip(t *testing.T) {
	cli, stop := startTCPPair(t, func(ctx context.Context, req *wire.Request) *wire.Response {
		if req.Kind == wire.KindBatch {
			return HandleBatch(ctx, func(_ context.Context, sub *wire.Request) *wire.Response {
				return &wire.Response{Status: wire.StatusOK, Detail: "echo:" + sub.TxID}
			}, req)
		}
		return &wire.Response{Status: wire.StatusError, Detail: "want batch"}
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
