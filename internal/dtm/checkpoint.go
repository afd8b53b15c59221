package dtm

import "qracn/internal/store"

// Checkpoint is a savepoint of a transaction: the lengths of its read log
// and its undo log, and how many Blocks had begun, when it was taken.
// Restoring it forgets the first accesses made since, undoes the writes made
// since, newest first, and numbers the next Block as it was numbered the
// first time; nothing is copied when it is taken or restored. Sub takes one
// at the start of every Block, and the ACN executor takes one before each
// Block of an attempt so that it can rewind to the Block that first read a
// conflicting object.
//
// Savepoints nest as a stack: restoring one voids every savepoint taken
// after it, and it can be restored again as long as it is not voided.
type Checkpoint struct {
	reads, undo, subSeq int
}

// ReadLen reports how many first accesses predate the checkpoint.
func (cp Checkpoint) ReadLen() int { return cp.reads }

// Checkpoint takes a savepoint of the transaction's current private state.
func (tx *Tx) Checkpoint() Checkpoint {
	return Checkpoint{reads: len(tx.readOrder), undo: len(tx.undo), subSeq: tx.subSeq}
}

// Restore rolls the transaction's private state back to the checkpoint:
// reads performed after it are forgotten (so they will be re-fetched, and
// re-validated, on re-execution), every write made after it is undone, and
// the Blocks begun after it will take their numbers again.
func (tx *Tx) Restore(cp Checkpoint) {
	for i := len(tx.undo) - 1; i >= cp.undo; i-- {
		if u := tx.undo[i]; u.had {
			tx.writes[u.id] = u.prev
		} else {
			delete(tx.writes, u.id)
		}
	}
	tx.undo = tx.undo[:cp.undo]
	for _, id := range tx.readOrder[cp.reads:] {
		delete(tx.reads, id)
	}
	tx.readOrder = tx.readOrder[:cp.reads]
	tx.subSeq = cp.subSeq
}

// RollBack is a partial abort: it restores the checkpoint, counts ae in
// SubAborts, attributes it as partial with retry as its depth, and backs off
// for retry before the caller runs again from the checkpoint. Sub does this
// when a conflict stays inside the Block it runs; the ACN executor does it to
// rewind to the Block that first read a conflicting object. retry counts the
// caller's earlier rollbacks of the same scope, and Config.MaxSubAttempts
// bounds them: from there on nothing is rolled back and ae is returned, so
// the abort stands.
func (tx *Tx) RollBack(cp Checkpoint, ae *AbortError, retry int) error {
	rt := tx.rt
	if retry >= rt.cfg.MaxSubAttempts {
		return ae
	}
	rt.noteShards(tx.readOrder[cp.reads:], shardSubAbort)
	tx.Restore(cp)
	rt.metrics.SubAborts.Add(1)
	rt.recordAbort(tx, ae, true, retry)
	return rt.backoff(tx.ctx, retry)
}

// ReadPosition reports the position of the object in the transaction's
// first-access order, and false if the object has not been read.
func (tx *Tx) ReadPosition(id store.ObjectID) (int, bool) {
	if _, ok := tx.reads[id]; !ok {
		return 0, false
	}
	for i, rid := range tx.readOrder {
		if rid == id {
			return i, true
		}
	}
	return 0, false
}
