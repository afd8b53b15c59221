package main

import (
	"strings"
	"testing"

	"qracn/internal/store"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
)

// Each checker must accept a state that is consistent with the acknowledged
// commits and refuse one corrupted in the way the invariant guards against.

func TestCheckBank(t *testing.T) {
	cfg := bank.Config{Branches: 3, Accounts: 5, InitialBalance: 100}
	good := func() state {
		st := state{}
		for _, id := range bankIDs(cfg) {
			st[id] = store.Int64(100)
		}
		// one transfer of 5: both branches and both accounts move
		st[store.ID("branch", 0)], st[store.ID("branch", 1)] = store.Int64(95), store.Int64(105)
		st[store.ID("account", 2)], st[store.ID("account", 4)] = store.Int64(95), store.Int64(105)
		return st
	}
	if err := checkBank(good(), cfg); err != nil {
		t.Errorf("conserving state refused: %v", err)
	}
	lost := good()
	lost[store.ID("account", 4)] = store.Int64(100) // the credit half of the transfer vanished
	if err := checkBank(lost, cfg); err == nil || !strings.Contains(err.Error(), "money -5") {
		t.Errorf("lost credit not caught: %v", err)
	}
	missing := good()
	delete(missing, store.ID("branch", 2))
	if err := checkBank(missing, cfg); err == nil {
		t.Error("missing branch not caught")
	}
}

func TestCheckNewOrder(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2}
	good := func() state {
		st := state{
			store.ID("district", 0, 0): store.Tuple{store.Int64(3), store.Int64(0)}, // issued ids 1, 2
			store.ID("district", 0, 1): store.Tuple{store.Int64(2), store.Int64(0)}, // issued id 1
		}
		for _, o := range [][2]int64{{0, 1}, {0, 2}, {1, 1}} {
			st[store.ID("order", 0, int(o[0]), o[1])] = store.Tuple{store.Int64(o[1]), store.Int64(500)}
		}
		return st
	}
	if got := len(newOrderIDs(state{}, cfg)); got != 2 {
		t.Errorf("first id list has %d entries, want the 2 district rows", got)
	}
	if got := len(newOrderIDs(good(), cfg)); got != 5 {
		t.Errorf("second id list has %d entries, want 2 districts + 3 orders", got)
	}
	if err := checkNewOrder(good(), cfg, 3, 0); err != nil {
		t.Errorf("consistent state refused: %v", err)
	}
	if err := checkNewOrder(good(), cfg, 2, 1); err != nil {
		t.Errorf("one unacknowledged commit within slack refused: %v", err)
	}
	if err := checkNewOrder(good(), cfg, 4, 0); err == nil {
		t.Error("acknowledged commit missing from the state (lost write) not caught")
	}
	if err := checkNewOrder(good(), cfg, 2, 0); err == nil {
		t.Error("commit nobody was acknowledged, beyond slack, not caught")
	}
	hole := good()
	delete(hole, store.ID("order", 0, 0, 2))
	if err := checkNewOrder(hole, cfg, 3, 0); err == nil || !strings.Contains(err.Error(), "order 0/0/2") {
		t.Errorf("issued id without an order row not caught: %v", err)
	}
	wrong := good()
	wrong[store.ID("order", 0, 1, 1)] = store.Tuple{store.Int64(9), store.Int64(500)}
	if err := checkNewOrder(wrong, cfg, 3, 0); err == nil {
		t.Error("order row carrying another id not caught")
	}
	noDistrict := good()
	delete(noDistrict, store.ID("district", 0, 1))
	if err := checkNewOrder(noDistrict, cfg, 3, 0); err == nil {
		t.Error("missing district row not caught")
	}
}

func TestCheckDelivery(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 2}
	good := func() state {
		st := state{}
		for i, id := range deliveryIDs(cfg) {
			st[id] = store.Int64(int64(i)) // 0+1+2+3 = 6 deliveries
		}
		return st
	}
	if err := checkDelivery(good(), cfg, 6, 0); err != nil {
		t.Errorf("consistent state refused: %v", err)
	}
	if err := checkDelivery(good(), cfg, 7, 0); err == nil {
		t.Error("lost delivery not caught")
	}
	if err := checkDelivery(good(), cfg, 4, 1); err == nil {
		t.Error("deliveries beyond acknowledgements and slack not caught")
	}
	rewound := good()
	rewound[store.ID("dlv", 1, 1)] = store.Int64(-1)
	if err := checkDelivery(rewound, cfg, 2, 0); err == nil {
		t.Error("negative cursor not caught")
	}
	gone := good()
	delete(gone, store.ID("dlv", 0, 0))
	if err := checkDelivery(gone, cfg, 6, 0); err == nil {
		t.Error("missing cursor not caught")
	}
}
