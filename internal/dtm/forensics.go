package dtm

import (
	"context"
	"errors"

	"qracn/internal/forensics"
)

// recordAbort attributes one abort — partial or full — to its forensic
// cause: per-cause and per-block counters always, plus a structured ring
// event when the recorder is enabled. tx carries the block metadata and the
// transaction ID of the whole transaction, whichever Block aborted. Only
// abort paths reach here; the conflict-free hot path never allocates an
// event.
func (rt *Runtime) recordAbort(tx *Tx, ae *AbortError, partial bool, retryDepth int) {
	switch ae.Cause {
	case forensics.CauseReadValidation:
		rt.metrics.AbortsReadValidation.Add(1)
	case forensics.CauseLockConflict:
		rt.metrics.AbortsLockConflict.Add(1)
	case forensics.CauseCommitRound:
		rt.metrics.AbortsCommitRound.Add(1)
	case forensics.CauseDeadline:
		rt.metrics.AbortsDeadline.Add(1)
	case forensics.CauseOverload:
		rt.metrics.AbortsOverload.Add(1)
	}
	switch {
	case ae.Block <= 0:
		rt.metrics.AbortsBlock0.Add(1)
	case ae.Block == 1:
		rt.metrics.AbortsBlock1.Add(1)
	case ae.Block == 2:
		rt.metrics.AbortsBlock2.Add(1)
	default:
		rt.metrics.AbortsBlock3Plus.Add(1)
	}
	if rt.forensics == nil {
		return
	}
	shard := -1
	if rt.cfg.Shards != nil && ae.Key != "" {
		shard = rt.cfg.Shards.ShardFor(ae.Key)
	}
	anchor := -1
	if ae.Block >= 0 && ae.Block < len(tx.blockAnchors) {
		anchor = tx.blockAnchors[ae.Block]
	}
	rt.forensics.RecordAbort(forensics.AbortEvent{
		TxID:            tx.id,
		Incarnation:     tx.incarnation,
		BlockIndex:      ae.Block,
		BlockCount:      tx.blockCount,
		UnitAnchorID:    anchor,
		Key:             string(ae.Key),
		Shard:           shard,
		Cause:           ae.Cause,
		ConflictingTxID: ae.ConflictTx,
		Partial:         partial,
		RetryDepth:      retryDepth,
	})
}

// causeOfErr classifies a non-abort transaction exit for forensic
// attribution: retry budgets and deadlines read as deadline aborts, refused
// backpressure as overload. Everything else (quorum loss, transport
// failures) stays unattributed.
func causeOfErr(err error) forensics.Cause {
	switch {
	case errors.Is(err, ErrNodeOverloaded):
		return forensics.CauseOverload
	case errors.Is(err, ErrRetriesExhausted),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return forensics.CauseDeadline
	}
	return forensics.CauseUnknown
}
