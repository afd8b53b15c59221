package dtm

import "qracn/internal/store"

// Checkpoint captures a flat transaction's private state (read-set length
// and a deep copy of the write-set) so execution can later be rolled back
// to this point instead of restarting from the beginning. This implements
// the checkpointing alternative to closed nesting the paper contrasts ACN
// against (§I, §III): finer-grained rollback, but every checkpoint pays for
// copying the intermediate state — the overhead the paper's closed-nesting
// approach avoids.
//
// Checkpoints are only meaningful on a top-level transaction that does not
// use Sub; mixing the two rollback mechanisms is not supported.
type Checkpoint struct {
	readLen int
	writes  map[store.ObjectID]store.Value
}

// ReadLen reports how many first accesses predate the checkpoint.
func (cp *Checkpoint) ReadLen() int { return cp.readLen }

// Checkpoint saves the transaction's current private state.
func (tx *Tx) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		readLen: len(tx.readOrder),
		writes:  make(map[store.ObjectID]store.Value, len(tx.writes)),
	}
	for id, v := range tx.writes {
		if v != nil {
			cp.writes[id] = v.CloneValue()
		} else {
			cp.writes[id] = nil
		}
	}
	return cp
}

// Restore rolls the transaction's private state back to the checkpoint:
// reads performed after it are forgotten (so they will be re-fetched, and
// re-validated, on re-execution) and the write buffer reverts to the saved
// copy.
func (tx *Tx) Restore(cp *Checkpoint) {
	for _, id := range tx.readOrder[cp.readLen:] {
		delete(tx.reads, id)
	}
	tx.readOrder = tx.readOrder[:cp.readLen]
	tx.writes = make(map[store.ObjectID]store.Value, len(cp.writes))
	for id, v := range cp.writes {
		if v != nil {
			tx.writes[id] = v.CloneValue()
		} else {
			tx.writes[id] = nil
		}
	}
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
