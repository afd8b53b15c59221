package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// span is one timed call at a layer boundary, recorded from outside the
// program by the wrappers below. Times are nanoseconds since the pass began.
//
//	tx          acn.Executor.Execute, one per generated transaction
//	refresh     acn.Hub.RefreshOnce, one per client per interval boundary
//	rpc.<kind>  transport.Client.Call, one per message a client sends
//	serve.<kind> server.Node.Handle, one per message a node answers
//
// parent links a span to the one that caused it (0: none). They ride the
// context.Context the seams already thread from Execute down to the handler.
// txid is the wire.Request.TxID the program stamped on the message:
// "c<client>-t<seq>-a<attempt>" names the transaction and, by its suffix,
// the attempt, which is how retried work is told from committing work.
type span struct {
	id, parent uint64
	name       string
	txid       string
	node       int // serving or destination node, -1 on client-only spans
	start, end int64
	// busy marks a reply that refused a protected object (read Busy or a
	// prepare naming busy objects); failed marks a call that returned an
	// error or a transaction that did not commit.
	busy, failed bool
	// vote marks a prepare reply that voted yes, i.e. one that left its
	// protections installed until the decision arrives (serve spans).
	vote bool
	// bytes is the binary-codec size of request plus response (rpc spans).
	bytes int
	// profile is the workload profile index (tx spans).
	profile int
}

func (s *span) dur() int64 { return s.end - s.start }

// collector gathers spans in memory for one traced pass.
type collector struct {
	base   time.Time // set when load starts; no span is recorded before
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	bufs sync.Pool // *[]byte scratch for measuring encoded sizes
}

func newCollector() *collector {
	c := &collector{spans: make([]span, 0, 1<<16)}
	c.bufs.New = func() any { b := make([]byte, 0, 512); return &b }
	return c
}

func (c *collector) now() int64 { return int64(time.Since(c.base)) }

func (c *collector) add(s span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// spanKey carries the current span id through a context.
type spanKey struct{}

func parentFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// begin opens a client-side root span (tx or refresh) and returns the
// context its calls must run under, plus the function that closes it.
func (c *collector) begin(ctx context.Context, name string, profile int) (context.Context, func(err error)) {
	s := span{id: c.nextID.Add(1), name: name, node: -1, profile: profile, start: c.now()}
	return context.WithValue(ctx, spanKey{}, s.id), func(err error) {
		s.end = c.now()
		s.failed = err != nil
		c.add(s)
	}
}

// tracedClient wraps the transport seam between a runtime and the network.
type tracedClient struct {
	col   *collector
	inner transport.Client
}

func (t *tracedClient) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	s := span{
		id:     t.col.nextID.Add(1),
		parent: parentFrom(ctx),
		name:   spanName(rpcNames, req.Kind),
		txid:   req.TxID,
		node:   int(to),
		start:  t.col.now(),
	}
	resp, err := t.inner.Call(context.WithValue(ctx, spanKey{}, s.id), to, req)
	s.end = t.col.now()
	s.failed = err != nil
	s.bytes = t.col.encodedSize(&wire.Envelope{Req: req})
	if resp != nil {
		s.bytes += t.col.encodedSize(&wire.Envelope{IsResponse: true, Resp: resp})
	}
	t.col.add(s)
	return resp, err
}

// encodedSize re-encodes an envelope with the binary codec to learn how many
// bytes the message takes on the wire. Only the traced pass pays for it.
func (c *collector) encodedSize(env *wire.Envelope) int {
	bp := c.bufs.Get().(*[]byte)
	out, err := wire.AppendEnvelope((*bp)[:0], env)
	n := len(out)
	if err != nil {
		n = 0
	}
	*bp = out[:0]
	c.bufs.Put(bp)
	return n
}

// timedHandler wraps the seam between the network and one node.
func (c *collector) timedHandler(id quorum.NodeID, h transport.Handler) transport.Handler {
	return func(ctx context.Context, req *wire.Request) *wire.Response {
		s := span{
			id:     c.nextID.Add(1),
			parent: parentFrom(ctx),
			name:   spanName(serveNames, req.Kind),
			txid:   req.TxID,
			node:   int(id),
			start:  c.now(),
		}
		resp := h(ctx, req)
		s.end = c.now()
		if resp != nil {
			s.busy = refusedBusy(resp)
			s.failed = resp.Status == wire.StatusError
			s.vote = resp.Prepare != nil && resp.Prepare.Vote
		}
		c.add(s)
		return resp
	}
}

// refusedBusy reports whether a reply refused a protected object: a Busy
// read, a prepare naming busy objects, or a batch holding such a read.
func refusedBusy(resp *wire.Response) bool {
	if resp.Status == wire.StatusBusy || (resp.Prepare != nil && len(resp.Prepare.Busy) > 0) {
		return true
	}
	if resp.Batch != nil {
		for _, sub := range resp.Batch.Subs {
			if sub != nil && sub.Status == wire.StatusBusy {
				return true
			}
		}
	}
	return false
}

// rpcNames and serveNames hold "<prefix><kind>" per wire.Kind so the wrappers
// do not build a string per message.
var rpcNames, serveNames = kindNames("rpc."), kindNames("serve.")

func kindNames(prefix string) []string {
	names := make([]string, 32)
	for k := range names {
		names[k] = prefix + wire.Kind(k).String()
	}
	return names
}

func spanName(names []string, k wire.Kind) string {
	if k < 0 || int(k) >= len(names) {
		return names[wire.KindPing] // Kind.String's own fallback
	}
	return names[k]
}

// txRef is a parsed wire.Request.TxID.
type txRef struct {
	client  int
	seq     uint64
	attempt int
}

// key is the transaction's identity across attempts: "c<client>-t<seq>".
func (r txRef) key() string { return fmt.Sprintf("c%d-t%d", r.client, r.seq) }

// parseTxID splits "c<client>-t<seq>-a<attempt>". Messages outside a
// transaction (contention-stats queries, pings) carry other ids or none and
// report false.
func parseTxID(id string) (txRef, bool) {
	parts := strings.Split(id, "-")
	if len(parts) != 3 || len(parts[0]) < 2 || len(parts[1]) < 2 || len(parts[2]) < 2 ||
		parts[0][0] != 'c' || parts[1][0] != 't' || parts[2][0] != 'a' {
		return txRef{}, false
	}
	client, err1 := strconv.Atoi(parts[0][1:])
	seq, err2 := strconv.ParseUint(parts[1][1:], 10, 64)
	attempt, err3 := strconv.Atoi(parts[2][1:])
	if err1 != nil || err2 != nil || err3 != nil || client < 0 || attempt < 0 {
		return txRef{}, false
	}
	return txRef{client: client, seq: seq, attempt: attempt}, true
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s *span, children []*span) int64 {
	ivs := make([]interval, len(children))
	for i, ch := range children {
		ivs[i] = interval{ch.start, ch.end}
	}
	return s.dur() - unionLength(ivs, &interval{s.start, s.end})
}

// writeTrace writes the spans as a JSON array, one object per line, joined
// by "parent" and labelled with the transaction key and attempt parsed from
// the wire TxID. Formatting is by hand: a delivery-sharded pass holds several
// hundred thousand spans and encoding/json would spend seconds on them.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	w.WriteString("[\n")
	for i := range spans {
		s := &spans[i]
		line = line[:0]
		line = append(line, `{"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.parent, 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.name)
		if ref, ok := parseTxID(s.txid); ok {
			line = append(line, `,"tx":`...)
			line = strconv.AppendQuote(line, s.txid[:strings.LastIndex(s.txid, "-a")])
			line = append(line, `,"attempt":`...)
			line = strconv.AppendInt(line, int64(ref.attempt), 10)
		}
		if s.node >= 0 {
			line = append(line, `,"node":`...)
			line = strconv.AppendInt(line, int64(s.node), 10)
		}
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"dur_ns":`...)
		line = strconv.AppendInt(line, s.dur(), 10)
		if s.busy {
			line = append(line, `,"busy":true`...)
		}
		if s.failed {
			line = append(line, `,"failed":true`...)
		}
		line = append(line, '}')
		if i < len(spans)-1 {
			line = append(line, ',')
		}
		line = append(line, '\n')
		w.Write(line)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
