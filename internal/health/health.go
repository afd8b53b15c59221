// Package health implements a client-side failure detector for quorum
// nodes. The simulated channel network exposes a perfect liveness oracle
// (transport.ChannelNetwork.Alive), but a real deployment has nothing of the
// sort: a crashed TCP node keeps being selected into quorums and every
// attempt stalls for the request timeout. The Detector closes that gap from
// the client side alone — it watches the outcome of every RPC the runtime
// issues, accumulates per-node suspicion with exponential time decay, and
// excludes suspected nodes from quorum selection until a half-open probe
// succeeds.
//
// The detector is passive: it never opens connections of its own. While a
// node is suspected, Alive reports false, except that once per ProbeInterval
// a single caller is allowed through (the half-open trial of a circuit
// breaker); that caller's ordinary request doubles as the probe, and its
// outcome — reported back through ReportSuccess/ReportFailure — either
// readmits the node or re-arms the breaker. A recovering node therefore
// rejoins quorums without operator action and without dedicated ping
// traffic.
package health

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/transport"
)

// Config tunes a Detector.
type Config struct {
	// SuspectAfter is the suspicion score at which a node trips from alive
	// to suspected; each communication failure adds 1 (default 3).
	SuspectAfter int
	// ProbeInterval spaces half-open probes of a suspected node: once per
	// interval a single request is allowed through to test it (default
	// 250ms).
	ProbeInterval time.Duration
	// DecayHalfLife halves a node's suspicion score per elapsed half-life,
	// so sporadic timeouts under load do not accumulate into a false
	// suspicion (default 2s).
	DecayHalfLife time.Duration
	// Now injects a clock for deterministic tests (nil: time.Now).
	Now func() time.Time
}

func (c *Config) fillDefaults() {
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 3
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.DecayHalfLife == 0 {
		c.DecayHalfLife = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// nodeState is the per-node breaker state.
type nodeState struct {
	score     float64   // decayed failure count
	lastEvent time.Time // when score was last updated (decay reference)
	suspected bool
	lastProbe time.Time // last half-open admission while suspected
}

// Counters mirrors detector events into external atomic counters (e.g. the
// fields of a dtm.Metrics) in addition to the detector's own tallies. Nil
// fields are skipped.
type Counters struct {
	Suspicions   *atomic.Uint64
	Probes       *atomic.Uint64
	Readmissions *atomic.Uint64
}

// Stats is a point-in-time copy of the detector's event counts.
type Stats struct {
	// Suspicions counts alive→suspected transitions.
	Suspicions uint64
	// Probes counts half-open admissions of suspected nodes.
	Probes uint64
	// Readmissions counts suspected→alive transitions.
	Readmissions uint64
	// Failures counts reported communication failures.
	Failures uint64
}

// Detector tracks per-node health from observed RPC outcomes. It is safe
// for concurrent use by any number of transaction goroutines.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	nodes map[quorum.NodeID]*nodeState

	suspicions   atomic.Uint64
	probes       atomic.Uint64
	readmissions atomic.Uint64
	failures     atomic.Uint64

	sink atomic.Pointer[Counters]
}

// New creates a Detector with every node presumed alive.
func New(cfg Config) *Detector {
	cfg.fillDefaults()
	return &Detector{cfg: cfg, nodes: make(map[quorum.NodeID]*nodeState)}
}

// SetCounters mirrors future detector events into c (nil clears the sink).
func (d *Detector) SetCounters(c *Counters) { d.sink.Store(c) }

func (d *Detector) bump(own *atomic.Uint64, ext func(*Counters) *atomic.Uint64) {
	own.Add(1)
	if s := d.sink.Load(); s != nil {
		if u := ext(s); u != nil {
			u.Add(1)
		}
	}
}

// state returns the node's entry, creating it on first reference. Callers
// hold d.mu.
func (d *Detector) state(id quorum.NodeID) *nodeState {
	st, ok := d.nodes[id]
	if !ok {
		st = &nodeState{}
		d.nodes[id] = st
	}
	return st
}

// decay applies the exponential half-life to st.score for the time elapsed
// since the last event. Callers hold d.mu.
func (d *Detector) decay(st *nodeState, now time.Time) {
	if st.score == 0 || st.lastEvent.IsZero() {
		return
	}
	elapsed := now.Sub(st.lastEvent)
	if elapsed <= 0 {
		return
	}
	st.score *= math.Exp2(-float64(elapsed) / float64(d.cfg.DecayHalfLife))
	if st.score < 0.01 {
		st.score = 0
	}
}

// Alive implements quorum.AliveFunc: it reports false for suspected nodes,
// admitting a single half-open trial per ProbeInterval so ordinary traffic
// probes the node back in.
func (d *Detector) Alive(id quorum.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.nodes[id]
	if !ok || !st.suspected {
		return true
	}
	now := d.cfg.Now()
	if now.Sub(st.lastProbe) >= d.cfg.ProbeInterval {
		st.lastProbe = now
		d.bump(&d.probes, func(c *Counters) *atomic.Uint64 { return c.Probes })
		return true
	}
	return false
}

// ReportSuccess records a completed RPC to the node. A suspected node is
// readmitted: its breaker closes and it becomes eligible for every quorum
// again.
func (d *Detector) ReportSuccess(id quorum.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.nodes[id]
	if !ok {
		return
	}
	now := d.cfg.Now()
	d.decay(st, now)
	st.lastEvent = now
	if st.suspected {
		st.suspected = false
		st.score = 0
		d.bump(&d.readmissions, func(c *Counters) *atomic.Uint64 { return c.Readmissions })
		return
	}
	// A success halves the residual score on top of the time decay, so a
	// node that answers again sheds suspicion quickly.
	st.score /= 2
}

// ReportFailure records a communication failure (timeout or connection
// error) to the node. Crossing the suspicion threshold trips the breaker;
// a failed half-open probe re-arms its timer.
func (d *Detector) ReportFailure(id quorum.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state(id)
	now := d.cfg.Now()
	d.failures.Add(1)
	if st.suspected {
		// The probe (or a straggling call) failed: hold the breaker open
		// and restart the probe clock.
		st.lastProbe = now
		st.lastEvent = now
		return
	}
	d.decay(st, now)
	st.score++
	st.lastEvent = now
	if st.score >= float64(d.cfg.SuspectAfter) {
		st.suspected = true
		// Backdate the probe clock so the first half-open trial is not
		// delayed a full interval beyond the suspicion itself.
		st.lastProbe = now
		d.bump(&d.suspicions, func(c *Counters) *atomic.Uint64 { return c.Suspicions })
	}
}

// IsSuspected reports whether the node's breaker is open.
func (d *Detector) IsSuspected(id quorum.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.nodes[id]
	return ok && st.suspected
}

// Snapshot copies the detector's event counts.
func (d *Detector) Snapshot() Stats {
	return Stats{
		Suspicions:   d.suspicions.Load(),
		Probes:       d.probes.Load(),
		Readmissions: d.readmissions.Load(),
		Failures:     d.failures.Load(),
	}
}

// CountsAsFailure classifies an RPC error: true for outcomes that indicate
// the node (or the path to it) is unhealthy — timeouts, refused dials, dead
// connections — and false for errors that say nothing about the node's
// health (the caller cancelled, the client is closed or misconfigured, the
// stream codec rejected a frame).
func CountsAsFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var te *transport.Error
	if errors.As(err, &te) {
		switch te.Kind {
		case transport.ErrKindDial, transport.ErrKindTimeout, transport.ErrKindConnLost:
			return true
		default:
			// Decode and unclassified errors do not mark the node dead: the
			// peer answered, just not intelligibly.
			return false
		}
	}
	if errors.Is(err, transport.ErrNodeDown) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if errors.Is(err, transport.ErrUnknownNode) || errors.Is(err, transport.ErrClosed) {
		return false
	}
	return false
}
