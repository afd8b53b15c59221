package transport

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// ChannelConfig tunes the simulated network.
type ChannelConfig struct {
	// Latency is the one-way message latency; a request/response call pays
	// it twice. Zero disables the latency simulation entirely.
	Latency time.Duration
	// Jitter adds a uniform random component in [0, Jitter) to each one-way
	// hop.
	Jitter time.Duration
	// Seed makes the jitter sequence reproducible; 0 derives a seed from
	// the clock.
	Seed int64
	// Deprecated: ignored; every message is serialized. It stays only while
	// benchmark/ still sets it (ROADMAP item 10(c)).
	Codec wire.Codec
}

// Fault is the outcome a FaultFunc injects into one call.
type Fault struct {
	// Drop loses the message: the call blocks until the caller's context
	// expires, modelling a silently dropped packet (the client sees a
	// timeout, not a refused connection).
	Drop bool
	// Delay adds extra one-way latency before delivery.
	Delay time.Duration
	// Err fails the call immediately with this error (e.g. ErrNodeDown to
	// model a refused connection, or a typed *Error).
	Err error
}

// FaultFunc inspects an outgoing call and decides what fault, if any, to
// inject. It runs on the caller's goroutine for every Call, so hooks keyed
// on the destination node (or node pairs, via closure state) give tests
// deterministic drop/delay/partition control without touching the oracle
// down-map.
type FaultFunc func(to quorum.NodeID, req *wire.Request) Fault

// ChannelNetwork is an in-process "cluster": server handlers registered per
// node ID, calls delivered synchronously after a simulated network delay,
// and every request and response encoded and decoded at the node boundary,
// as a TCP connection does, so replicas cannot share memory. Nodes can be
// taken down and brought back to exercise the fault-tolerance paths.
type ChannelNetwork struct {
	cfg ChannelConfig

	mu       sync.RWMutex
	handlers map[quorum.NodeID]Handler
	down     map[quorum.NodeID]bool
	fault    FaultFunc
	closed   bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// epoch anchors the clock delivery times are measured on.
	epoch    time.Time
	delivery delivery
}

// envBufs recycles the byte buffers serialize encodes into.
var envBufs = sync.Pool{New: func() any { return new([]byte) }}

// serialize carries env across the node boundary as bytes: encoded into a
// pooled buffer and decoded into a fresh envelope that shares nothing with
// the original, nor with the buffer (wire.DecodeEnvelope reads out of a
// private copy of it).
func serialize(env *wire.Envelope) (*wire.Envelope, error) {
	bp := envBufs.Get().(*[]byte)
	defer envBufs.Put(bp)
	buf, err := wire.AppendEnvelope((*bp)[:0], env)
	if err != nil {
		return nil, err
	}
	*bp = buf[:0]
	return wire.DecodeEnvelope(buf)
}

// NewChannelNetwork creates an empty simulated network.
func NewChannelNetwork(cfg ChannelConfig) *ChannelNetwork {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &ChannelNetwork{
		cfg:      cfg,
		handlers: make(map[quorum.NodeID]Handler),
		down:     make(map[quorum.NodeID]bool),
		rng:      rand.New(rand.NewSource(seed)),
		epoch:    time.Now(),
		delivery: delivery{sleeper: newHopSleeper()},
	}
}

// Register installs the handler for a server node.
func (n *ChannelNetwork) Register(id quorum.NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// SetDown marks a node unreachable (true) or reachable (false).
func (n *ChannelNetwork) SetDown(id quorum.NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

// SetFault installs (or, with nil, removes) a fault-injection hook consulted
// on every call. Unlike SetDown, injected faults are invisible to the Alive
// oracle — exactly what failure-detector tests need.
func (n *ChannelNetwork) SetFault(f FaultFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fault = f
}

// Alive reports whether the node is registered and not marked down. It has
// the quorum.AliveFunc shape so it can drive quorum construction directly.
func (n *ChannelNetwork) Alive(id quorum.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.handlers[id]
	return ok && !n.down[id]
}

// Close marks the network closed: subsequent calls fail with ErrClosed, and
// so does every call still waiting for a delivery. It returns once the
// delivery goroutine has exited.
func (n *ChannelNetwork) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.delivery.close()
}

// hopDelay draws the delay of one one-way hop: Latency plus, from the seeded
// sequence, a jitter in [0, Jitter).
func (n *ChannelNetwork) hopDelay() time.Duration {
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		n.rngMu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.rngMu.Unlock()
	}
	return d
}

// Call implements Client. The request and response cross as bytes, so the
// caller and the server never share mutable state and each side sees what
// a TCP connection would deliver.
func (n *ChannelNetwork) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	n.mu.RLock()
	h, ok := n.handlers[to]
	down := n.down[to]
	fault := n.fault
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, ErrUnknownNode
	}
	if down {
		return nil, ErrNodeDown
	}
	var injected time.Duration
	if fault != nil {
		f := fault(to, req)
		if f.Err != nil {
			return nil, f.Err
		}
		if f.Drop {
			return nil, n.wait(ctx, to, lost)
		}
		injected = max(f.Delay, 0)
	}
	if err := n.wait(ctx, to, injected+n.hopDelay()); err != nil {
		return nil, err
	}
	in, err := serialize(&wire.Envelope{Req: req})
	if err != nil {
		return nil, &Error{Kind: ErrKindDecode, Node: to, Err: err}
	}
	// The caller's context crosses the "network" directly: handlers observe
	// the client's deadline and cancellation, as the TCP transport's cancel
	// frames arrange for real deployments.
	resp := h(ctx, in.Req)

	// The node may have gone down while "processing"; model the lost reply.
	n.mu.RLock()
	down = n.down[to]
	n.mu.RUnlock()
	if down {
		return nil, ErrNodeDown
	}
	if err := n.wait(ctx, to, n.hopDelay()); err != nil {
		return nil, err
	}
	out, err := serialize(&wire.Envelope{IsResponse: true, Resp: resp})
	if err != nil {
		return nil, &Error{Kind: ErrKindDecode, Node: to, Err: err}
	}
	return out.Resp, nil
}

var _ Client = (*ChannelNetwork)(nil)
