package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/backoff"
	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// Both directions of a TCP connection run one persistent binary encoder or
// decoder (the scratch buffers are reused across frames) behind a single
// writer goroutine that coalesces queued envelopes into one buffered write +
// flush, so pipelined requests share syscalls.

// preamble is what a client writes before its first frame: a magic byte,
// then the protocol version. A server closes any connection that opens with
// anything else. The magic cannot begin a length-prefixed stream of the
// pre-binary (gob) era — that starts with the top byte of a 4-byte length
// bounded by wire.MaxFrameSize, so at most 0x04 — which keeps a legacy
// client from being mistaken for a current one, and the refusal from
// depending on what its bytes happen to decode as. The version moves when a
// kind's number changes meaning: 0x02 had the two per-ring debug fetches
// where 0x03 has KindInspect, so an old inspector and a new node refuse each
// other here instead of mis-decoding kind 8; 0x03 had the stats query at
// kind 3 where 0x04 has KindShardMap (and no kinds 10 and 11).
var preamble = [2]byte{0xC6, 0x04}

// outBufSize is the buffered-writer size of the coalescing writer.
const outBufSize = 32 << 10

// outQueueLen is the outbound envelope queue depth per connection.
const outQueueLen = 128

// writeLoop drains the outbound queue into the stream encoder. Envelopes
// already queued when one finishes encoding are encoded into the same
// buffered write before the flush. It exits when stop closes or a write
// fails; the caller's deferred cleanup unblocks any remaining senders.
func writeLoop(enc *wire.BinaryEncoder, bw *bufio.Writer, out <-chan *wire.Envelope, stop <-chan struct{}) {
	for {
		var env *wire.Envelope
		select {
		case env = <-out:
		case <-stop:
			return
		}
		for env != nil {
			if err := enc.Encode(env); err != nil {
				return
			}
			select {
			case env = <-out:
			default:
				env = nil
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// TCPServer serves a node's handler over a TCP listener in binary frames.
// Each connection multiplexes concurrent requests by sequence number; every
// request runs under a context cancelled when the client sends a cancel frame
// or the connection goes away.
type TCPServer struct {
	handler  Handler
	compress bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewTCPServer wraps a handler for TCP serving.
func NewTCPServer(h Handler, compress bool) *TCPServer {
	return &TCPServer{handler: h, compress: compress, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (e.g. ":7450" or "127.0.0.1:0") and starts accepting in
// a background goroutine. It returns the bound address.
func (s *TCPServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *TCPServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()

	// Check the protocol version before anything else. An idle connection
	// blocked here is no different from one blocked on its first frame;
	// Close() closing the conn unblocks both.
	var opened [len(preamble)]byte
	if _, err := io.ReadFull(conn, opened[:]); err != nil || opened != preamble {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		return
	}

	// Per-connection context: every request context derives from it, so a
	// dropped connection (or server shutdown closing the conn) cancels all
	// in-flight handlers.
	connCtx, connCancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }

	out := make(chan *wire.Envelope, outQueueLen)
	bw := bufio.NewWriterSize(conn, outBufSize)
	enc := wire.NewBinaryEncoder(bw, s.compress)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		defer closeStop()
		writeLoop(enc, bw, out, stop)
	}()

	var handlerWG sync.WaitGroup
	var inflightMu sync.Mutex
	inflight := make(map[uint64]context.CancelFunc)

	defer func() {
		conn.Close()
		connCancel()
		handlerWG.Wait()
		closeStop()
		writerWG.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	dec := wire.NewBinaryDecoder(conn)
	for {
		env, err := dec.Decode()
		if err != nil {
			return
		}
		if env.Cancel {
			inflightMu.Lock()
			if cancel, ok := inflight[env.Seq]; ok {
				cancel()
			}
			inflightMu.Unlock()
			continue
		}
		if env.Req == nil {
			continue // ignore malformed envelopes
		}
		reqCtx, cancel := context.WithCancel(connCtx)
		inflightMu.Lock()
		inflight[env.Seq] = cancel
		inflightMu.Unlock()
		handlerWG.Add(1)
		go func(env *wire.Envelope, reqCtx context.Context, cancel context.CancelFunc) {
			defer handlerWG.Done()
			resp := s.handler(reqCtx, env.Req)
			inflightMu.Lock()
			delete(inflight, env.Seq)
			inflightMu.Unlock()
			cancel()
			// A cancelled caller has stopped waiting; the response is still
			// written (it is cheap) and dropped client-side by seq lookup.
			select {
			case out <- &wire.Envelope{Seq: env.Seq, IsResponse: true, Resp: resp}:
			case <-stop:
			}
		}(env, reqCtx, cancel)
	}
}

// Close stops the listener and all connections, waiting for in-flight
// handlers to finish.
func (s *TCPServer) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// RetryPolicy shapes the TCP client's reconnect behaviour: a call that hits
// a dead connection re-dials and retries up to MaxRetries times with capped
// exponential backoff instead of failing outright.
type RetryPolicy struct {
	// MaxRetries bounds reconnect attempts per call (0 keeps the default 3;
	// negative disables retries).
	MaxRetries int
	// BackoffBase/BackoffMax shape the exponential backoff between attempts
	// (defaults 2ms / 200ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 2 * time.Millisecond
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 200 * time.Millisecond
	}
}

// TCPClient maps node IDs to TCP addresses and maintains one multiplexed
// connection per node, dialed lazily and re-dialed with backoff after
// failures.
type TCPClient struct {
	addrs    map[quorum.NodeID]string
	compress bool
	retry    RetryPolicy

	retries   atomic.Uint64
	retrySink atomic.Pointer[atomic.Uint64]

	mu     sync.Mutex
	conns  map[quorum.NodeID]*tcpConn
	closed bool
}

type tcpConn struct {
	conn net.Conn
	out  chan *wire.Envelope
	stop chan struct{}

	mu       sync.Mutex
	stopDone bool
	nextSeq  uint64
	pending  map[uint64]chan *wire.Response
	dead     bool
	// failKind records why the connection died (conn-lost vs. decode) so
	// waiters surface a classified error.
	failKind ErrKind
}

// ParseAddrs turns a comma-separated address list in tree order into the
// address map NewTCPClient takes: entry i is node i. Spaces around an entry
// are trimmed; an empty entry (an empty list, or a stray comma) is an error
// rather than a node with no address.
func ParseAddrs(list string) (map[quorum.NodeID]string, error) {
	parts := strings.Split(list, ",")
	addrs := make(map[quorum.NodeID]string, len(parts))
	for i, a := range parts {
		if a = strings.TrimSpace(a); a == "" {
			return nil, fmt.Errorf("empty address for node %d in %q", i, list)
		}
		addrs[quorum.NodeID(i)] = a
	}
	return addrs, nil
}

// NewTCPClient creates a client for the given node address map.
func NewTCPClient(addrs map[quorum.NodeID]string, compress bool) *TCPClient {
	m := make(map[quorum.NodeID]string, len(addrs))
	for k, v := range addrs {
		m[k] = v
	}
	c := &TCPClient{addrs: m, compress: compress, conns: make(map[quorum.NodeID]*tcpConn)}
	c.retry.fillDefaults()
	return c
}

// SetRetryPolicy replaces the reconnect policy. Not safe to call
// concurrently with Call.
func (c *TCPClient) SetRetryPolicy(p RetryPolicy) {
	p.fillDefaults()
	c.retry = p
}

// Retries reports how many reconnect attempts the client has made: every
// retry of a call, plus every re-dial of a lost connection a call's first
// attempt had to make.
func (c *TCPClient) Retries() uint64 { return c.retries.Load() }

// SetRetryCounter mirrors every reconnect attempt into an external counter
// (e.g. a dtm.Metrics field), in addition to the internal one.
func (c *TCPClient) SetRetryCounter(u *atomic.Uint64) { c.retrySink.Store(u) }

func (c *TCPClient) countRetry() {
	c.retries.Add(1)
	if s := c.retrySink.Load(); s != nil {
		s.Add(1)
	}
}

// getConn returns the node's connection, dialing one if there is none or
// the last one died. redial reports the second case: the read loop can see
// the peer go away before any call does, and then the reconnect happens here,
// on a call's first attempt, where Call's retry loop would never count it.
func (c *TCPClient) getConn(to quorum.NodeID) (tc *tcpConn, redial bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, ErrClosed
	}
	old, had := c.conns[to]
	if had && !old.isDead() {
		return old, false, nil
	}
	addr, ok := c.addrs[to]
	if !ok {
		return nil, false, ErrUnknownNode
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, had, &Error{Kind: ErrKindDial, Node: to,
			Err: fmt.Errorf("%w: dial %s: %v", ErrNodeDown, addr, err)}
	}
	tc = &tcpConn{
		conn:    conn,
		out:     make(chan *wire.Envelope, outQueueLen),
		stop:    make(chan struct{}),
		pending: make(map[uint64]chan *wire.Response),
	}
	c.conns[to] = tc
	bw := bufio.NewWriterSize(conn, outBufSize)
	// The preamble goes through the buffered writer, so it coalesces into
	// the same packet as the first frame. Two bytes into a fresh buffer
	// never flush, so the write cannot fail.
	_, _ = bw.Write(preamble[:])
	enc := wire.NewBinaryEncoder(bw, c.compress)
	go func() {
		defer tc.fail()
		writeLoop(enc, bw, tc.out, tc.stop)
	}()
	go tc.readLoop(wire.NewBinaryDecoder(conn))
	return tc, had, nil
}

func (tc *tcpConn) isDead() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.dead
}

func (tc *tcpConn) readLoop(dec *wire.BinaryDecoder) {
	for {
		env, err := dec.Decode()
		if err != nil {
			tc.failWith(streamFailKind(err))
			return
		}
		if !env.IsResponse {
			continue
		}
		tc.mu.Lock()
		ch, ok := tc.pending[env.Seq]
		if ok {
			delete(tc.pending, env.Seq)
		}
		tc.mu.Unlock()
		if ok {
			ch <- env.Resp
		}
	}
}

// fail marks the connection dead, stops the writer, and unblocks all
// waiters. Idempotent.
func (tc *tcpConn) fail() { tc.failWith(ErrKindConnLost) }

func (tc *tcpConn) failWith(kind ErrKind) {
	// The kind is recorded before the connection is closed: the close makes
	// the other loop fail as well, and its conn-lost must not be the cause
	// that waiters are told.
	defer tc.conn.Close()
	tc.mu.Lock()
	if tc.dead && tc.stopDone {
		tc.mu.Unlock()
		return
	}
	if !tc.dead {
		tc.dead = true
		tc.failKind = kind
	}
	if !tc.stopDone {
		tc.stopDone = true
		close(tc.stop)
	}
	pending := tc.pending
	tc.pending = make(map[uint64]chan *wire.Response)
	tc.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// deadErr builds the classified error for a dead connection.
func (tc *tcpConn) deadErr(node quorum.NodeID) error {
	tc.mu.Lock()
	kind := tc.failKind
	tc.mu.Unlock()
	if kind == ErrKindUnknown {
		kind = ErrKindConnLost
	}
	return &Error{Kind: kind, Node: node, Err: ErrNodeDown}
}

// roundTrip sends one request on this connection and waits for its response.
// It returns ErrNodeDown-wrapped errors when the connection died, which the
// caller treats as retriable.
func (tc *tcpConn) roundTrip(ctx context.Context, node quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	ch := make(chan *wire.Response, 1)
	tc.mu.Lock()
	if tc.dead {
		tc.mu.Unlock()
		return nil, tc.deadErr(node)
	}
	seq := tc.nextSeq
	tc.nextSeq++
	tc.pending[seq] = ch
	tc.mu.Unlock()

	drop := func() {
		tc.mu.Lock()
		delete(tc.pending, seq)
		tc.mu.Unlock()
	}

	select {
	case tc.out <- &wire.Envelope{Seq: seq, Req: req}:
	case <-tc.stop:
		drop()
		return nil, tc.deadErr(node)
	case <-ctx.Done():
		drop()
		return nil, classify(node, ErrKindUnknown, ctx.Err())
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, tc.deadErr(node)
		}
		return resp, nil
	case <-ctx.Done():
		drop()
		// Tell the server to cancel the in-flight request (best effort; a
		// full queue or dead connection makes it moot).
		select {
		case tc.out <- &wire.Envelope{Seq: seq, Cancel: true}:
		default:
		}
		return nil, classify(node, ErrKindUnknown, ctx.Err())
	}
}

// Call implements Client. A dead connection is re-dialed with capped
// exponential backoff up to the retry policy's budget before the call fails.
func (c *TCPClient) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.countRetry()
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		tc, redial, err := c.getConn(to)
		if redial && attempt == 0 {
			c.countRetry() // later attempts were counted as retries above
		}
		if err != nil {
			if errors.Is(err, ErrUnknownNode) || errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
		} else {
			resp, err := tc.roundTrip(ctx, to, req)
			if err == nil {
				return resp, nil
			}
			if ctx.Err() != nil {
				return nil, classify(to, ErrKindUnknown, ctx.Err())
			}
			lastErr = err
		}
		if attempt >= c.retry.MaxRetries {
			return nil, lastErr
		}
	}
}

func (c *TCPClient) sleepBackoff(ctx context.Context, attempt int) error {
	p := backoff.Policy{Base: c.retry.BackoffBase, Max: c.retry.BackoffMax}
	return backoff.Sleep(ctx, p.Delay(attempt-1))
}

// Close tears down all connections.
func (c *TCPClient) Close() {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns = make(map[quorum.NodeID]*tcpConn)
	c.mu.Unlock()
	for _, tc := range conns {
		tc.fail()
	}
}

var _ Client = (*TCPClient)(nil)
