// Package backoff is the single retry-pacing implementation shared by every
// retry loop in the system: transport re-dials, dtm abort backoff (busy
// aborts included), the 2PC decide retry rounds, and the overload
// (StatusOverloaded) backpressure path. Before this package each of those
// carried its own ad-hoc copy of "capped exponential sleep", with no shared
// notion of how much retrying one transaction is allowed to do — the classic
// ingredient of a retry storm: under overload every layer retries
// independently and the offered load multiplies exactly when the system can
// least afford it.
//
// Two pieces:
//
//   - Policy computes capped exponential delays, optionally jittered into
//     [d/2, 3d/2] so synchronized clients decorrelate.
//   - Budget is a small shared counter capping the total retries one
//     transaction attempt may spend across ALL its retry loops (quorum
//     failover, overload backpressure). When it runs dry the transaction
//     fails instead of adding load.
package backoff

import (
	"context"
	"sync/atomic"
	"time"
)

// Policy shapes a capped exponential backoff sequence. The zero value is
// usable but degenerate (zero delays); callers normally set both fields.
type Policy struct {
	// Base is the delay before the first retry (attempt 0).
	Base time.Duration
	// Max caps the exponential growth.
	Max time.Duration
}

// Delay returns the pre-jitter delay for the given 0-based attempt:
// Base<<attempt, capped at Max. The shift saturates so huge attempt counts
// cannot overflow.
func (p Policy) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := p.Base << uint(min(attempt, 16))
	if d > p.Max {
		d = p.Max
	}
	return d
}

// JitteredDelay spreads Delay(attempt) uniformly over [d/2, 3d/2] using the
// caller's random source (a func returning a non-negative int64 below its
// argument, e.g. rand.Int63n). draw==nil returns the deterministic delay.
func (p Policy) JitteredDelay(attempt int, draw func(n int64) int64) time.Duration {
	d := p.Delay(attempt)
	if draw == nil || d <= 0 {
		return d
	}
	return d/2 + time.Duration(draw(int64(d)+1))
}

// Sleep blocks for d or until ctx is done, returning ctx.Err() in the latter
// case. d <= 0 returns immediately (after a ctx check).
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Budget caps the total number of retries one logical operation (a
// transaction attempt) may spend across all its retry loops. It is shared by
// reference: every loop touching the same transaction calls Take on the same
// Budget, so a transaction that burned its allowance on quorum failovers
// cannot then burn as much again on overload backpressure. A nil *Budget is
// unlimited, so call sites stay unconditional.
type Budget struct {
	left atomic.Int64
}

// NewBudget returns a budget allowing n retries. n <= 0 returns nil — the
// unlimited budget.
func NewBudget(n int) *Budget {
	if n <= 0 {
		return nil
	}
	b := &Budget{}
	b.left.Store(int64(n))
	return b
}

// Take consumes one retry from the budget, reporting false when it is
// exhausted. Safe for concurrent use; nil receivers always grant.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	return b.left.Add(-1) >= 0
}
