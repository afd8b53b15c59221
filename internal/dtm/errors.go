// Package dtm implements the client side of the QR-DTM / QR-CN protocols:
// transaction contexts with read/write sets, remote reads served by a read
// quorum with incremental validation, closed nesting with one level of
// sub-transactions (partial rollback), and a two-phase-commit coordinator
// over a write quorum.
package dtm

import (
	"errors"
	"fmt"

	"qracn/internal/forensics"
	"qracn/internal/store"
)

// AbortLevel distinguishes partial from full rollback.
type AbortLevel int

// Abort levels.
const (
	// AbortSub: the invalidated objects were first accessed by the
	// currently executing sub-transaction; only it re-executes (partial
	// rollback).
	AbortSub AbortLevel = iota
	// AbortParent: an object already merged into the parent's history was
	// invalidated (or the commit failed); the whole transaction re-executes.
	AbortParent
)

func (l AbortLevel) String() string {
	if l == AbortSub {
		return "sub"
	}
	return "parent"
}

// AbortError reports that (part of) a transaction must re-execute.
type AbortError struct {
	Level   AbortLevel
	Invalid []store.ObjectID
	// Busy marks aborts caused by protected objects (2PC in progress
	// elsewhere) rather than invalidated reads.
	Busy   bool
	Reason string

	// Forensic attribution, populated at the abort site so the retry loop
	// can record a structured AbortEvent without re-deriving the cause.
	Cause forensics.Cause
	// Key is the first object implicated in the abort ("" when the abort
	// has no single-object witness, e.g. a rejected prepare round).
	Key store.ObjectID
	// ConflictTx is the server's conflict witness: the transaction whose
	// protection refused this one and the mode it held it in
	// (forensics.SplitWitness), when a server identified one.
	ConflictTx string
	// Block is the index of the execution context that detected the
	// conflict: 0 for top-level (including commit time), k for the k-th
	// sub-transaction.
	Block int
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("dtm: %s-level abort (%s): invalid=%v busy=%v", e.Level, e.Reason, e.Invalid, e.Busy)
}

// AsAbort extracts an AbortError from err.
func AsAbort(err error) (*AbortError, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// Errors returned by the runtime.
var (
	// ErrNestingDepth reports an attempt to open a sub-transaction inside a
	// sub-transaction; ACN decomposes with exactly one level of nesting
	// (paper §IV).
	ErrNestingDepth = errors.New("dtm: sub-transactions cannot be nested (one level only)")
	// ErrRetriesExhausted reports that a transaction kept aborting past the
	// configured retry budget.
	ErrRetriesExhausted = errors.New("dtm: retries exhausted")
	// ErrQuorumUnreachable reports that no quorum could be assembled or
	// reached.
	ErrQuorumUnreachable = errors.New("dtm: quorum unreachable")
	// ErrNodeUnavailable reports a member that answered StatusUnavailable:
	// the process is live but still replaying its commit log after a
	// restart. The caller fails over to another member; the error
	// deliberately does not satisfy health.CountsAsFailure, so a recovering
	// node is not pushed toward suspicion by the very clients it refused.
	ErrNodeUnavailable = errors.New("dtm: node unavailable (recovering)")
	// ErrNodeOverloaded reports a member that kept answering
	// StatusOverloaded past the transaction's retry budget (or context).
	// Like ErrNodeUnavailable it deliberately does not satisfy
	// health.CountsAsFailure: the node is alive and shedding load on
	// purpose; suspecting it would convert backpressure into failover churn.
	ErrNodeOverloaded = errors.New("dtm: node overloaded (backpressure)")
)
