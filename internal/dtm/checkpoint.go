package dtm

import "qracn/internal/store"

// Checkpoint is a savepoint of a transaction: the lengths of its read log
// and its undo log when it was taken. Restoring it forgets the first accesses
// made since and undoes the writes made since, newest first; nothing is
// copied when it is taken or restored. Sub takes one at the start of every
// Block, and QR-CP, the checkpointing alternative to closed nesting the paper
// contrasts ACN against (§I, §III), takes one before every anchor, so the two
// differ only in where they may roll back to.
//
// Savepoints nest as a stack: restoring one voids every savepoint taken
// after it, and it can be restored again as long as it is not voided.
type Checkpoint struct {
	reads, undo int
}

// ReadLen reports how many first accesses predate the checkpoint.
func (cp *Checkpoint) ReadLen() int { return cp.reads }

// Checkpoint takes a savepoint of the transaction's current private state.
func (tx *Tx) Checkpoint() *Checkpoint {
	return &Checkpoint{reads: len(tx.readOrder), undo: len(tx.undo)}
}

// Restore rolls the transaction's private state back to the checkpoint:
// reads performed after it are forgotten (so they will be re-fetched, and
// re-validated, on re-execution) and every write made after it is undone.
func (tx *Tx) Restore(cp *Checkpoint) {
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
