package acn

import (
	"context"

	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/txir"
)

// maxCheckpointRollbacks bounds partial rollbacks within one top-level
// attempt before giving up and restarting the whole transaction.
const maxCheckpointRollbacks = 1000

// checkpointState is one saved execution point: the statement to resume
// from, the transaction's private state, and a deep copy of the variables.
type checkpointState struct {
	stmt int
	tx   *dtm.Checkpoint
	vars map[txir.Var]store.Value
}

// ExecuteCheckpointed runs one invocation under checkpoint-based partial
// rollback — the alternative rollback mechanism the paper contrasts closed
// nesting with (§I, §III). Before every remote first access the executor
// saves the transaction's private state and the variable bindings; when an
// invalidation is detected, execution restores the latest checkpoint taken
// *before* the invalidated object's first read and resumes from there,
// instead of restarting the transaction.
//
// Finer-grained than closed nesting (any rollback point, not just
// sub-transaction boundaries), but every checkpoint pays a state-copy cost
// on the critical path — the overhead ACN's closed nesting avoids.
// Conflicts discovered at commit time still restart the transaction.
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
				cps = append(cps, checkpointState{
					stmt: i,
					tx:   tx.Checkpoint(),
					vars: env.SnapshotVars(),
				})
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
			env.RestoreVars(cps[k].vars)
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
