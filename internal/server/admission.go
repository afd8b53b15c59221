package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/wire"
)

// admissionGated reports whether a request kind passes through the admission
// gate. The exemptions are correctness-driven, not politeness:
//
//   - KindDecision delivers 2PC outcomes, a coordinator's or a forwarded
//     one. A decided transaction holds protections on every participant;
//     shedding its decision would convert overload into stuck locks and
//     in-doubt state — the opposite of shedding load.
//   - KindTxStatus serves the cooperative termination protocol. Peers query
//     it to END in-doubt transactions; refusing it under load would keep
//     protections pinned exactly when the node wants capacity back.
//   - KindPing is the liveness/recovery probe; shedding it would make an
//     overloaded node look dead and invite failover churn.
//   - KindShardMap is a tiny bootstrap read answered from static state.
func admissionGated(k wire.Kind) bool {
	switch k {
	case wire.KindDecision, wire.KindTxStatus, wire.KindPing, wire.KindShardMap:
		return false
	}
	return true
}

// deadlineExempt reports kinds that must never be rejected for an expired
// request deadline. A decision would otherwise let a caller's deadline
// end an in-doubt transaction early — the decision exists once a yes-vote
// quorum does, and must reach participants no matter how stale the delivery
// is (the PR 7 termination-protocol invariant). TxStatus answers are peers'
// machinery, not client work, and Ping carries no work at all.
func deadlineExempt(k wire.Kind) bool {
	switch k {
	case wire.KindDecision, wire.KindTxStatus, wire.KindPing:
		return true
	}
	return false
}

// AdmissionStats is a node's overload-protection counter snapshot. Deployment
// layers aggregate it across nodes the same way they do ResolutionStats.
type AdmissionStats struct {
	// Admitted counts gated requests that acquired an execution slot
	// (immediately or after queueing).
	Admitted uint64
	// Shed counts gated requests answered StatusOverloaded instead of
	// executing: queue-full rejects, adaptive-LIFO age-outs, and waiters
	// whose caller gave up while queued. Every shed request is answered —
	// never silently dropped.
	Shed uint64
	// Expired counts requests rejected because their propagated deadline had
	// already passed on arrival (before any lock or WAL work).
	Expired uint64
}

// Add accumulates another node's counters.
func (a *AdmissionStats) Add(o AdmissionStats) {
	a.Admitted += o.Admitted
	a.Shed += o.Shed
	a.Expired += o.Expired
}

// gateWaiter is one queued request. Its channel carries exactly one value,
// sent while holding the gate mutex: true hands over an execution slot,
// false sheds the waiter. The single-send discipline is what makes the
// cancellation race below safe.
type gateWaiter struct {
	ch chan bool
	at time.Time
}

// admissionGate is a bounded in-flight limiter with a bounded wait queue and
// adaptive LIFO shedding. Normal operation is FIFO: a released slot goes to
// the oldest waiter. When the queue is *standing* — its head has waited past
// maxAge, so every FIFO handover would serve a request whose caller is about
// to give up — the gate flips to LIFO: the newest waiter (whose caller has
// the most patience budget left) gets the slot, and aged waiters are shed
// with StatusOverloaded immediately rather than being left to time out. This
// is the classic overload move (serve fresh work, fail old work fast): it
// converts a latency collapse into explicit backpressure the client's retry
// budget can reason about.
type admissionGate struct {
	maxInflight int
	queueDepth  int
	maxAge      time.Duration
	now         func() time.Time

	mu       sync.Mutex
	inflight int
	queue    []*gateWaiter

	admitted atomic.Uint64
	shed     atomic.Uint64
}

func newAdmissionGate(maxInflight, queueDepth int, maxAge time.Duration, now func() time.Time) *admissionGate {
	if maxInflight <= 0 {
		return nil
	}
	if queueDepth <= 0 {
		queueDepth = 4 * maxInflight
	}
	if maxAge <= 0 {
		maxAge = 100 * time.Millisecond
	}
	if now == nil {
		now = time.Now
	}
	return &admissionGate{
		maxInflight: maxInflight,
		queueDepth:  queueDepth,
		maxAge:      maxAge,
		now:         now,
	}
}

func overloaded(detail string) *wire.Response {
	return &wire.Response{Status: wire.StatusOverloaded, Detail: detail}
}

// acquire obtains an execution slot or a StatusOverloaded response. On
// success the returned release func MUST be called when the request
// finishes; on shed the response is non-nil and release is nil.
func (g *admissionGate) acquire(ctx context.Context) (func(), *wire.Response) {
	g.mu.Lock()
	if g.inflight < g.maxInflight {
		g.inflight++
		g.mu.Unlock()
		g.admitted.Add(1)
		return g.release, nil
	}
	if len(g.queue) >= g.queueDepth {
		g.mu.Unlock()
		g.shed.Add(1)
		return nil, overloaded("admission queue full")
	}
	w := &gateWaiter{ch: make(chan bool, 1), at: g.now()}
	g.queue = append(g.queue, w)
	g.mu.Unlock()

	select {
	case ok := <-w.ch:
		if !ok {
			g.shed.Add(1)
			return nil, overloaded("shed from standing queue")
		}
		g.admitted.Add(1)
		return g.release, nil
	case <-ctx.Done():
		// The caller gave up while queued. The handover send happens under
		// g.mu, so under the lock the waiter is either still queued (remove
		// it) or already holds a value in its buffered channel (consume it;
		// if it was a slot, give the slot back).
		g.mu.Lock()
		select {
		case ok := <-w.ch:
			g.mu.Unlock()
			if ok {
				g.release()
			}
		default:
			g.removeLocked(w)
			g.mu.Unlock()
		}
		g.shed.Add(1)
		return nil, overloaded("caller cancelled while queued")
	}
}

// release returns a slot: hand it to a waiter if any, else free it. All
// waiter sends happen under g.mu into 1-buffered channels, so each waiter
// receives exactly one verdict and never blocks the gate.
func (g *admissionGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) == 0 {
		g.inflight--
		return
	}
	var w *gateWaiter
	if g.now().Sub(g.queue[0].at) > g.maxAge {
		// Standing queue: adaptive LIFO. Newest waiter gets the slot...
		w = g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		// ...and waiters that have already aged past the threshold are shed
		// now, as explicit StatusOverloaded answers.
		kept := g.queue[:0]
		for _, old := range g.queue {
			if g.now().Sub(old.at) > g.maxAge {
				old.ch <- false
			} else {
				kept = append(kept, old)
			}
		}
		g.queue = kept
	} else {
		w = g.queue[0]
		g.queue = g.queue[1:]
	}
	w.ch <- true // slot handed over; inflight unchanged
}

// removeLocked unlinks an abandoned waiter. Callers hold g.mu.
func (g *admissionGate) removeLocked(w *gateWaiter) {
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return
		}
	}
}
