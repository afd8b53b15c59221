// Package transport moves wire messages between DTM clients and quorum
// nodes. Two implementations are provided: an in-process channel network
// that models the paper's 1 Gbps switched cluster by injecting per-message
// latency (used by tests, benchmarks, and the figure harness), and a real
// TCP transport (binary frames behind a protocol-version preamble, request
// multiplexing, optional compression) for multi-process deployment via
// cmd/qracn-node.
package transport

import (
	"context"
	"errors"
	"sync"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// Handler processes one request on a server node and returns the response.
// The context carries the caller's deadline and cancellation — over the
// channel transport it is the client's call context, over TCP it is a
// server-side context cancelled when the client sends a cancel frame or the
// connection drops. Handlers must be safe for concurrent use and should
// return promptly once ctx is done.
type Handler func(ctx context.Context, req *wire.Request) *wire.Response

// Client issues request/response calls to server nodes.
type Client interface {
	// Call sends req to the given node and waits for its response.
	Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error)
}

// HandleBatch dispatches the sub-requests of a KindBatch request through h
// and assembles the sub-responses in matching order. Reads run one after the
// other on the calling goroutine: a read never waits (a protected object is
// answered busy at once), a read-ahead is a dozen of them on every member of
// the quorum, and a goroutine apiece costs more than the reads do. Every
// other kind may wait — a prepare for its fsync, any handler for whatever it
// likes — so each of those gets its own goroutine and they overlap with the
// reads and with each other. Nested batches are rejected. When ctx is
// cancelled, sub-requests that have not started are answered with a cancelled
// error status instead of executing, and running handlers observe the
// cancellation through their context.
func HandleBatch(ctx context.Context, h Handler, req *wire.Request) *wire.Response {
	b := req.Batch
	if b == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "batch request missing payload"}
	}
	resp := &wire.BatchResponse{Subs: make([]*wire.Response, len(b.Subs))}
	run := func(i int, sub *wire.Request) {
		if err := ctx.Err(); err != nil {
			resp.Subs[i] = &wire.Response{Status: wire.StatusError, Detail: "cancelled: " + err.Error()}
			return
		}
		resp.Subs[i] = h(ctx, sub)
	}
	var wg sync.WaitGroup
	for i, sub := range b.Subs {
		switch {
		case sub == nil:
			resp.Subs[i] = &wire.Response{Status: wire.StatusError, Detail: "nil sub-request"}
		case sub.Kind == wire.KindBatch:
			resp.Subs[i] = &wire.Response{Status: wire.StatusError, Detail: "nested batch"}
		case sub.Kind == wire.KindRead:
			run(i, sub)
		default:
			wg.Add(1)
			go func(i int, sub *wire.Request) {
				defer wg.Done()
				run(i, sub)
			}(i, sub)
		}
	}
	wg.Wait()
	return &wire.Response{Status: wire.StatusOK, Batch: resp}
}

// Errors returned by transports.
var (
	// ErrNodeDown reports that the destination node is unreachable.
	ErrNodeDown = errors.New("transport: node is down")
	// ErrUnknownNode reports that no node with that ID is registered.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
)
