package acn

import (
	"context"

	"qracn/internal/dtm"
	"qracn/internal/txir"
)

// maxCheckpointRollbacks bounds partial rollbacks within one top-level
// attempt before giving up and restarting the whole transaction.
const maxCheckpointRollbacks = 1000

// checkpointState is one saved execution point: the statement to resume
// from and the transaction's savepoint. The variables need no copy: each is
// assigned once (txir.Program.Validate), so a variable defined before stmt
// still holds its value, and one defined at or after stmt is defined again
// before any resumed statement reads it.
type checkpointState struct {
	stmt int
	tx   *dtm.Checkpoint
}

// ExecuteCheckpointed runs one invocation under checkpoint-based partial
// rollback — the alternative rollback mechanism the paper contrasts closed
// nesting with (§I, §III). Before every remote first access the executor
// takes a savepoint of the transaction; when an invalidation is detected,
// execution restores the latest checkpoint taken *before* the invalidated
// object's first read and resumes from there, instead of restarting the
// transaction.
//
// A savepoint is the same one a Block's Sub takes, and copies nothing; the
// variables are assigned once, so they need no copy either. Checkpointing
// therefore differs from closed nesting only in how fine its rollback is
// (any anchor, not just Block boundaries). Conflicts discovered at commit
// time still restart the transaction.
func (e *Executor) ExecuteCheckpointed(ctx context.Context, params map[string]any) error {
	rt := e.rt
	return rt.Atomic(ctx, func(tx *dtm.Tx) error {
		env := txir.NewEnv(params)
		var cps []checkpointState
		rollbacks := 0
		i := 0
		for i < len(e.an.Stmts) {
			info := &e.an.Stmts[i]
			if info.IsAnchor {
				cps = append(cps, checkpointState{stmt: i, tx: tx.Checkpoint()})
			}
			err := e.runStmt(tx, env, nil, nil, i)
			if err == nil {
				i++
				continue
			}
			ae, ok := dtm.AsAbort(err)
			if !ok || len(ae.Invalid) == 0 || len(cps) == 0 {
				return err
			}
			if rollbacks++; rollbacks > maxCheckpointRollbacks {
				return err
			}
			// Roll back to the latest checkpoint preceding the earliest
			// invalidated read (an object not yet in the read-set — the
			// busy case — maps past the end, i.e. the current checkpoint).
			pos := len(e.an.Stmts)
			for _, id := range ae.Invalid {
				if p, ok := tx.ReadPosition(id); ok && p < pos {
					pos = p
				}
			}
			k := len(cps) - 1
			for k > 0 && cps[k].tx.ReadLen() > pos {
				k--
			}
			tx.Restore(cps[k].tx)
			i = cps[k].stmt
			cps = cps[:k]
			rt.Metrics().CheckpointRollbacks.Add(1)
			if ae.Busy {
				if err := rt.Backoff(ctx, rollbacks); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
