package main

import (
	"context"
	"fmt"

	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
)

// state is object values read back through a client after a pass; a missing
// object maps to nil.
type state map[store.ObjectID]store.Value

// readChunk bounds one audit transaction: every read re-validates the
// transaction's whole read-set, so one huge transaction would cost O(n²).
const readChunk = 128

// readState reads ids through quorum reads on rt, a chunk per read-only
// transaction. The system is quiescent when it runs, so chunks need no
// common snapshot.
func readState(ctx context.Context, rt *dtm.Runtime, ids []store.ObjectID) (state, error) {
	st := make(state, len(ids))
	for len(ids) > 0 {
		chunk := ids
		if len(chunk) > readChunk {
			chunk = chunk[:readChunk]
		}
		ids = ids[len(chunk):]
		err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			if err := tx.Prefetch(chunk...); err != nil {
				return err
			}
			for _, id := range chunk {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				st[id] = v
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("audit read: %w", err)
		}
	}
	return st, nil
}

// verify reads back what the workload's invariant needs and checks it. The
// id list may depend on a first read (order rows exist per issued order id),
// so ids is asked again until it stops growing.
func verify(ctx context.Context, spec *workloadSpec, rt *dtm.Runtime, acked, slack uint64) error {
	st := state{}
	for {
		var missing []store.ObjectID
		for _, id := range spec.ids(st) {
			if _, ok := st[id]; !ok {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			break
		}
		got, err := readState(ctx, rt, missing)
		if err != nil {
			return err
		}
		for id, v := range got {
			st[id] = v
		}
	}
	return spec.check(st, acked, slack)
}

// checkCount is the shared commit-count invariant: the state shows every
// acknowledged commit and at most slack unacknowledged ones.
func checkCount(what string, shown, acked, slack uint64) error {
	if shown < acked || shown > acked+slack {
		return fmt.Errorf("%s: state shows %d commits, clients were acknowledged %d (slack %d)", what, shown, acked, slack)
	}
	return nil
}

func bankIDs(cfg bank.Config) []store.ObjectID {
	ids := make([]store.ObjectID, 0, cfg.Branches+cfg.Accounts)
	for i := 0; i < cfg.Branches; i++ {
		ids = append(ids, store.ID("branch", i))
	}
	for i := 0; i < cfg.Accounts; i++ {
		ids = append(ids, store.ID("account", i))
	}
	return ids
}

// checkBank: transfers move money, so the total over all branches and
// accounts must equal what was seeded, exactly.
func checkBank(st state, cfg bank.Config) error {
	var total int64
	for _, id := range bankIDs(cfg) {
		v, ok := st[id]
		if !ok || v == nil {
			return fmt.Errorf("bank: object %s missing", id)
		}
		total += store.AsInt64(v)
	}
	want := int64(cfg.Branches+cfg.Accounts) * cfg.InitialBalance
	if total != want {
		return fmt.Errorf("bank: total balance %d, want %d (money %+d)", total, want, total-want)
	}
	return nil
}

// nextOrderID extracts a district row's next-order-id.
func nextOrderID(v store.Value) (int64, bool) {
	t, ok := v.(store.Tuple)
	if !ok || len(t) != 2 {
		return 0, false
	}
	return store.AsInt64(t[0]), true
}

// newOrderIDs lists the district rows and, once those are known, the order
// row of every id they have issued.
func newOrderIDs(st state, cfg tpcc.Config) []store.ObjectID {
	var ids []store.ObjectID
	for w := 0; w < cfg.Warehouses; w++ {
		for d := 0; d < cfg.Districts; d++ {
			id := store.ID("district", w, d)
			ids = append(ids, id)
			next, ok := nextOrderID(st[id])
			if !ok {
				continue
			}
			for oid := int64(1); oid < next; oid++ {
				ids = append(ids, store.ID("order", w, d, oid))
			}
		}
	}
	return ids
}

// checkNewOrder: every NewOrder commit takes one order id from its district
// and inserts the order row under it, so the ids issued must match the
// commits acknowledged and every issued id must have its row.
func checkNewOrder(st state, cfg tpcc.Config, acked, slack uint64) error {
	var issued uint64
	for w := 0; w < cfg.Warehouses; w++ {
		for d := 0; d < cfg.Districts; d++ {
			next, ok := nextOrderID(st[store.ID("district", w, d)])
			if !ok || next < 1 {
				return fmt.Errorf("new-order: district %d/%d row missing or malformed", w, d)
			}
			issued += uint64(next - 1)
			for oid := int64(1); oid < next; oid++ {
				row, ok := st[store.ID("order", w, d, oid)].(store.Tuple)
				if !ok || len(row) != 2 || store.AsInt64(row[0]) != oid {
					return fmt.Errorf("new-order: order %d/%d/%d was issued but its row is missing or malformed", w, d, oid)
				}
			}
		}
	}
	return checkCount("new-order", issued, acked, slack)
}

func deliveryIDs(cfg tpcc.Config) []store.ObjectID {
	ids := make([]store.ObjectID, 0, cfg.Warehouses*cfg.Districts)
	for w := 0; w < cfg.Warehouses; w++ {
		for d := 0; d < cfg.Districts; d++ {
			ids = append(ids, store.ID("dlv", w, d))
		}
	}
	return ids
}

// checkDelivery: every Delivery commit advances one district's delivery
// cursor by one, so the cursors must sum to the commits acknowledged.
func checkDelivery(st state, cfg tpcc.Config, acked, slack uint64) error {
	var delivered uint64
	for _, id := range deliveryIDs(cfg) {
		v, ok := st[id]
		if !ok || v == nil {
			return fmt.Errorf("delivery: cursor %s missing", id)
		}
		n := store.AsInt64(v)
		if n < 0 {
			return fmt.Errorf("delivery: cursor %s is negative (%d)", id, n)
		}
		delivered += uint64(n)
	}
	return checkCount("delivery", delivered, acked, slack)
}
