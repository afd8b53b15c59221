// Package trace is a lightweight structured event recorder for the DTM: a
// fixed-size concurrent ring of protocol events (reads, aborts, commits,
// recompositions) that costs nothing when disabled and never allocates
// unboundedly when enabled. It exists for debugging distributed executions
// — the transaction interleavings behind a throughput number are otherwise
// invisible — and for tests that assert on protocol behaviour.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Kind classifies events.
type Kind int

// Event kinds.
const (
	// KindRead is a remote (quorum) read.
	KindRead Kind = iota
	// KindCommit is a successful top-level commit.
	KindCommit
	// KindFullAbort is a parent-level abort.
	KindFullAbort
	// KindPartialAbort is a sub-transaction abort (partial rollback).
	KindPartialAbort
	// KindBusy is a wait caused by a protected object.
	KindBusy
	// KindRecompose is an ACN Block-sequence swap.
	KindRecompose
	// KindFailover is a quorum re-selection forced by member errors: the
	// retry excluded the failed members and picked a fresh quorum.
	KindFailover
	// KindSuspect is a failure-detector alive→suspected transition.
	KindSuspect
	// KindReadmit is a suspected node readmitted after a probe answered.
	KindReadmit
	// KindRepair is a read-repair push applied by a stale quorum member.
	KindRepair
	// KindWALFsync is a server-side group-commit fsync wait on the commit
	// path (Detail carries the wait duration).
	KindWALFsync
	// KindRecomposeSkip is an algorithm-module run whose output matched the
	// executor's current Block sequence, so the swap was skipped.
	KindRecomposeSkip
	// KindPrepareOrder is a client runtime switching between the parallel and
	// the root-first prepare fan-out (Detail carries the new mode and how many
	// of its last 64 prepare rounds were refused).
	KindPrepareOrder

	// numKinds counts the Kind values; it must stay last so the String
	// coverage test can iterate the enum.
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindCommit:
		return "commit"
	case KindFullAbort:
		return "full-abort"
	case KindPartialAbort:
		return "partial-abort"
	case KindBusy:
		return "busy"
	case KindRecompose:
		return "recompose"
	case KindFailover:
		return "failover"
	case KindSuspect:
		return "suspect"
	case KindReadmit:
		return "readmit"
	case KindRepair:
		return "repair"
	case KindWALFsync:
		return "wal-fsync"
	case KindRecomposeSkip:
		return "recompose-skip"
	case KindPrepareOrder:
		return "prepare-order"
	default:
		return "unknown"
	}
}

// Event is one recorded protocol event.
type Event struct {
	At   time.Time
	Kind Kind
	// TxID identifies the transaction attempt (empty for recompositions).
	TxID string
	// Detail carries the object, reason, or composition involved.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%s %-13s %-16s %s",
		e.At.Format("15:04:05.000000"), e.Kind, e.TxID, e.Detail)
}

// Tracer records events and spans into bounded rings (see Ring). Every
// method is safe for concurrent use and on a nil Tracer, which records
// nothing; build one with New.
type Tracer struct {
	enabled atomic.Bool
	events  *Ring[Event]
	spans   *Ring[Span]
}

// New returns an enabled tracer holding the last capacity events and the
// last capacity spans.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	t := &Tracer{events: NewRing[Event](capacity), spans: NewRing[Span](capacity)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether Record stores events.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Enable turns recording on or off.
func (t *Tracer) Enable(on bool) { t.enabled.Store(on) }

// Record stores one event. Safe to call on a nil or disabled tracer.
func (t *Tracer) Record(kind Kind, txID, detail string) {
	if !t.Enabled() {
		return
	}
	t.events.Record(Event{At: time.Now(), Kind: kind, TxID: txID, Detail: detail})
}

// Events returns the recorded events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events.Snapshot()
}

// Count returns how many kinds of each event are currently in the ring.
func (t *Tracer) Count() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range t.Events() {
		out[e.Kind]++
	}
	return out
}

// Dump renders the ring for inspection.
func (t *Tracer) Dump() string {
	var b strings.Builder
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
