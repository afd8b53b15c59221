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

// Errors returned by transports.
var (
	// ErrNodeDown reports that the destination node is unreachable.
	ErrNodeDown = errors.New("transport: node is down")
	// ErrUnknownNode reports that no node with that ID is registered.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
)
