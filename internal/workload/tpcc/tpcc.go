// Package tpcc implements a scaled-down TPC-C for the paper's evaluation
// (§VI-A): the NewOrder, Payment, and Delivery write profiles over
// warehouses, districts, customers, items, and stock. The access patterns
// reproduce the contention structure the paper exploits — District (and for
// Payment also Warehouse) rows are the system hot spots, item/stock/customer
// accesses are spread wide and cool, and Delivery touches only
// uniformly-low-contention objects.
package tpcc

import (
	"math/rand"

	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/workload"
)

// OrderLines is the fixed number of order lines per NewOrder (TPC-C draws
// 5-15; the IR unrolls a fixed count).
const OrderLines = 5

// Config sizes the benchmark (defaults are scaled down from the TPC-C spec
// so an in-process cluster saturates in milliseconds rather than hours).
type Config struct {
	Warehouses           int // default 2
	Districts            int // per warehouse, default 4
	CustomersPerDistrict int // default 20
	Items                int // default 100
	// MixNewOrder/MixPayment/MixDelivery/MixOrderStatus/MixStockLevel are
	// percentages selecting the transaction mix; they must sum to 100.
	// OrderStatus and StockLevel are the spec's read-only profiles (they
	// exercise the read-quorum validation fast path instead of 2PC).
	// Default 100/0/0/0/0.
	MixNewOrder    int
	MixPayment     int
	MixDelivery    int
	MixOrderStatus int
	MixStockLevel  int
	// InitialStock seeds every stock row (default 10,000).
	InitialStock int64
}

func (c *Config) fillDefaults() {
	if c.Warehouses == 0 {
		c.Warehouses = 2
	}
	if c.Districts == 0 {
		c.Districts = 4
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 20
	}
	if c.Items == 0 {
		c.Items = 100
	}
	if c.MixNewOrder == 0 && c.MixPayment == 0 && c.MixDelivery == 0 &&
		c.MixOrderStatus == 0 && c.MixStockLevel == 0 {
		c.MixNewOrder = 100
	}
	if c.InitialStock == 0 {
		c.InitialStock = 10_000
	}
}

// TPCC is the benchmark instance.
type TPCC struct {
	cfg      Config
	profiles []workload.Profile
}

// Profile indices.
const (
	ProfileNewOrder    = 0
	ProfilePayment     = 1
	ProfileDelivery    = 2
	ProfileOrderStatus = 3
	ProfileStockLevel  = 4
)

// New builds the benchmark. It panics if the mix does not sum to 100.
func New(cfg Config) *TPCC {
	cfg.fillDefaults()
	if cfg.MixNewOrder+cfg.MixPayment+cfg.MixDelivery+cfg.MixOrderStatus+cfg.MixStockLevel != 100 {
		panic("tpcc: transaction mix must sum to 100")
	}
	t := &TPCC{cfg: cfg}
	t.profiles = []workload.Profile{
		{
			Name:    "new-order",
			Program: NewOrderProgram(),
			Manual:  newOrderManual(),
		},
		{
			Name:    "payment",
			Program: PaymentProgram(),
			// Spec order: warehouse, district, customer.
			Manual: [][]int{{0}, {1}, {2}},
		},
		{
			Name:    "delivery",
			Program: DeliveryProgram(),
			Manual:  [][]int{{0}, {1}, {2}},
		},
		{
			Name:    "order-status",
			Program: OrderStatusProgram(),
			Manual:  [][]int{{0}, {1}, {2}},
		},
		{
			Name:    "stock-level",
			Program: StockLevelProgram(),
			Manual:  stockLevelManual(),
		},
	}
	return t
}

// Name implements workload.Workload.
func (t *TPCC) Name() string { return "tpcc" }

// Profiles implements workload.Workload.
func (t *TPCC) Profiles() []workload.Profile { return t.profiles }

// Phases implements workload.Workload; the TPC-C experiments keep a single
// contention pattern.
func (t *TPCC) Phases() int { return 1 }

// SeedObjects implements workload.Workload.
func (t *TPCC) SeedObjects() map[store.ObjectID]store.Value {
	objs := make(map[store.ObjectID]store.Value)
	for w := 0; w < t.cfg.Warehouses; w++ {
		objs[store.IntID("warehouse", w)] = store.Int64(0) // ytd
		for d := 0; d < t.cfg.Districts; d++ {
			// district = {nextOID, ytd}
			objs[store.IntID("district", w, d)] = store.Tuple{store.Int64(1), store.Int64(0)}
			objs[store.IntID("dlv", w, d)] = store.Int64(0) // next order to deliver
			for c := 0; c < t.cfg.CustomersPerDistrict; c++ {
				objs[store.IntID("customer", w, d, c)] = store.Int64(0) // balance
			}
		}
		for i := 0; i < t.cfg.Items; i++ {
			objs[store.IntID("stock", w, i)] = store.Int64(t.cfg.InitialStock)
		}
	}
	for i := 0; i < t.cfg.Items; i++ {
		objs[store.IntID("item", i)] = store.Int64(int64(100 + i)) // price
	}
	return objs
}

// Generate implements workload.Workload.
func (t *TPCC) Generate(rng *rand.Rand, _ int) (int, map[string]any) {
	w := rng.Intn(t.cfg.Warehouses)
	d := rng.Intn(t.cfg.Districts)
	// Customers follow the spec's NURand(1023) non-uniform distribution.
	c := workload.NURand(rng, 1023, 0, t.cfg.CustomersPerDistrict-1, 7)
	params := map[string]any{"w": w, "d": d, "c": c}

	roll := rng.Intn(100)
	switch {
	case roll < t.cfg.MixNewOrder:
		// Distinct items per order (TPC-C orders rarely repeat an item, and
		// distinctness keeps the static may-alias rule exact).
		perm := rng.Perm(t.cfg.Items)
		for k := 0; k < OrderLines; k++ {
			params[itemParam(k)] = perm[k]
			params[qtyParam(k)] = 1 + rng.Intn(5)
		}
		return ProfileNewOrder, params
	case roll < t.cfg.MixNewOrder+t.cfg.MixPayment:
		params["amount"] = 1 + rng.Intn(500)
		return ProfilePayment, params
	case roll < t.cfg.MixNewOrder+t.cfg.MixPayment+t.cfg.MixDelivery:
		params["amount"] = 1 + rng.Intn(100)
		return ProfileDelivery, params
	case roll < t.cfg.MixNewOrder+t.cfg.MixPayment+t.cfg.MixDelivery+t.cfg.MixOrderStatus:
		return ProfileOrderStatus, params
	default:
		perm := rng.Perm(t.cfg.Items)
		for k := 0; k < StockLevelChecks; k++ {
			params[itemParam(k)] = perm[k]
		}
		return ProfileStockLevel, params
	}
}

func itemParam(k int) string { return "i" + string(rune('0'+k)) }
func qtyParam(k int) string  { return "q" + string(rune('0'+k)) }

// NewOrderProgram builds the NewOrder profile. UnitBlocks, in first-access
// order: 0 warehouse, 1 district, 2 customer, then (item, stock) per order
// line (3+2k, 4+2k), and finally the order insert (3+2*OrderLines), which
// depends on the district block through the order ID.
func NewOrderProgram() *txir.Program {
	p := txir.NewProgram("tpcc-new-order")
	p.ReadP("warehouse", "wh", "w")       // anchor 0 (read-only: tax lookup)
	p.ReadP("district", "dist", "w", "d") // anchor 1 (hot: next order id)
	p.Local(func(e *txir.Env) error {
		dist := e.Get("dist").(store.Tuple)
		oid := store.AsInt64(dist[0])
		e.SetInt64("oid", oid)
		e.Set("ndist", store.Tuple{store.Int64(oid + 1), dist[1]})
		return nil
	}, []txir.Var{"dist"}, []txir.Var{"oid", "ndist"})
	p.WriteP("district", "ndist", "w", "d")
	p.ReadP("customer", "cust", "w", "d", "c") // anchor 2

	for k := 0; k < OrderLines; k++ {
		ip, qp := itemParam(k), qtyParam(k)
		itm := txir.Var("itm" + string(rune('0'+k)))
		stk := txir.Var("stk" + string(rune('0'+k)))
		nstk := txir.Var("nstk" + string(rune('0'+k)))
		amt := txir.Var("amt" + string(rune('0'+k)))
		p.ReadP("item", itm, ip)       // anchor 3+2k (price lookup)
		p.ReadP("stock", stk, "w", ip) // anchor 4+2k
		p.Local(func(e *txir.Env) error {
			q := int64(e.ParamInt(qp))
			e.SetInt64(nstk, e.GetInt64(stk)-q)
			e.SetInt64(amt, e.GetInt64(itm)*q)
			return nil
		}, []txir.Var{itm, stk}, []txir.Var{nstk, amt})
		p.WriteP("stock", nstk, "w", ip)
	}

	// Build and insert the order row, keyed by the district's next order
	// id — the data dependency that keeps the insert after the district
	// read under any recomposition.
	uses := []txir.Var{"oid", "cust"}
	for k := 0; k < OrderLines; k++ {
		uses = append(uses, txir.Var("amt"+string(rune('0'+k))))
	}
	p.Local(func(e *txir.Env) error {
		total := int64(0)
		for k := 0; k < OrderLines; k++ {
			total += e.GetInt64(txir.Var("amt" + string(rune('0'+k))))
		}
		e.Set("orderRow", store.Tuple{store.Int64(e.GetInt64("oid")), store.Int64(total)})
		return nil
	}, uses, []txir.Var{"orderRow"})
	p.Write("order", "w,d,oid", func(e *txir.Env) store.ObjectID {
		return store.IntID("order", e.ParamInt("w"), e.ParamInt("d"), int(e.GetInt64("oid")))
	}, "orderRow", "oid")
	return p
}

// newOrderManual is the programmer's decomposition in spec order:
// warehouse+district first, then customer, one block per order line, the
// insert last.
func newOrderManual() [][]int {
	groups := [][]int{{0, 1}, {2}}
	for k := 0; k < OrderLines; k++ {
		groups = append(groups, []int{3 + 2*k, 4 + 2*k})
	}
	groups = append(groups, []int{3 + 2*OrderLines})
	return groups
}

// PaymentProgram builds the Payment profile: warehouse and district YTD
// updates (both hot) followed by the customer balance update (cool).
// UnitBlocks: 0 warehouse, 1 district, 2 customer.
func PaymentProgram() *txir.Program {
	p := txir.NewProgram("tpcc-payment")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("amt", int64(e.ParamInt("amount")))
		return nil
	}, nil, []txir.Var{"amt"})
	p.ReadP("warehouse", "wh", "w")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("nwh", e.GetInt64("wh")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"wh", "amt"}, []txir.Var{"nwh"})
	p.WriteP("warehouse", "nwh", "w")
	p.ReadP("district", "dist", "w", "d")
	p.Local(func(e *txir.Env) error {
		dist := e.Get("dist").(store.Tuple)
		e.Set("ndist", store.Tuple{dist[0], store.Int64(store.AsInt64(dist[1]) + e.GetInt64("amt"))})
		return nil
	}, []txir.Var{"dist", "amt"}, []txir.Var{"ndist"})
	p.WriteP("district", "ndist", "w", "d")
	p.ReadP("customer", "cust", "w", "d", "c")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("ncust", e.GetInt64("cust")-e.GetInt64("amt"))
		return nil
	}, []txir.Var{"cust", "amt"}, []txir.Var{"ncust"})
	p.WriteP("customer", "ncust", "w", "d", "c")
	return p
}

// DeliveryProgram builds the Delivery profile: advance the district's
// delivery cursor, look at the delivered order, credit the customer. All
// three classes are drawn uniformly, so contention is uniformly low — the
// paper's Fig. 4(d) scenario where closed nesting cannot help and ACN must
// only not hurt. UnitBlocks: 0 dlv, 1 order, 2 customer.
func DeliveryProgram() *txir.Program {
	p := txir.NewProgram("tpcc-delivery")
	p.ReadP("dlv", "cursor", "w", "d")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("oid", e.GetInt64("cursor"))
		e.SetInt64("ncursor", e.GetInt64("cursor")+1)
		return nil
	}, []txir.Var{"cursor"}, []txir.Var{"oid", "ncursor"})
	p.WriteP("dlv", "ncursor", "w", "d")
	p.Read("order", "w,d,oid", func(e *txir.Env) store.ObjectID {
		return store.IntID("order", e.ParamInt("w"), e.ParamInt("d"), int(e.GetInt64("oid")))
	}, "ord", "oid")
	p.Local(func(e *txir.Env) error {
		// The order may not exist yet (nothing to deliver): credit 0.
		var total int64
		if t, ok := e.Get("ord").(store.Tuple); ok && len(t) == 2 {
			total = store.AsInt64(t[1])
		}
		e.SetInt64("credit", total+int64(e.ParamInt("amount")))
		return nil
	}, []txir.Var{"ord"}, []txir.Var{"credit"})
	p.ReadP("customer", "cust", "w", "d", "c")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("ncust", e.GetInt64("cust")+e.GetInt64("credit"))
		return nil
	}, []txir.Var{"cust", "credit"}, []txir.Var{"ncust"})
	p.WriteP("customer", "ncust", "w", "d", "c")
	return p
}

// StockLevelChecks is how many stock rows one StockLevel transaction
// inspects (the spec examines the stock of the last 20 orders' items; the
// IR unrolls a fixed count).
const StockLevelChecks = 5

// OrderStatusProgram builds the spec's read-only OrderStatus profile: look
// up the customer, the district's order counter, and the most recent order
// in the district. All reads — the transaction commits through read-quorum
// validation without 2PC. UnitBlocks: 0 customer, 1 district, 2 order.
func OrderStatusProgram() *txir.Program {
	p := txir.NewProgram("tpcc-order-status")
	p.ReadP("customer", "cust", "w", "d", "c")
	p.ReadP("district", "dist", "w", "d")
	p.Local(func(e *txir.Env) error {
		dist := e.Get("dist").(store.Tuple)
		last := store.AsInt64(dist[0]) - 1
		if last < 1 {
			last = 1
		}
		e.SetInt64("lastOID", last)
		return nil
	}, []txir.Var{"dist"}, []txir.Var{"lastOID"})
	p.Read("order", "w,d,lastOID", func(e *txir.Env) store.ObjectID {
		return store.IntID("order", e.ParamInt("w"), e.ParamInt("d"), int(e.GetInt64("lastOID")))
	}, "ord", "lastOID")
	p.Local(func(e *txir.Env) error {
		var total int64
		if t, ok := e.Get("ord").(store.Tuple); ok && len(t) == 2 {
			total = store.AsInt64(t[1])
		}
		e.SetInt64("status", store.AsInt64(e.Get("cust"))+total)
		return nil
	}, []txir.Var{"cust", "ord"}, []txir.Var{"status"})
	return p
}

// StockLevelProgram builds the spec's read-only StockLevel profile: read
// the district counter and inspect several stock rows, counting those below
// a threshold. UnitBlocks: 0 district, then one per stock row.
func StockLevelProgram() *txir.Program {
	p := txir.NewProgram("tpcc-stock-level")
	p.ReadP("district", "dist", "w", "d")
	uses := make([]txir.Var, 0, StockLevelChecks)
	for k := 0; k < StockLevelChecks; k++ {
		stk := txir.Var("stk" + string(rune('0'+k)))
		p.ReadP("stock", stk, "w", itemParam(k))
		uses = append(uses, stk)
	}
	p.Local(func(e *txir.Env) error {
		low := int64(0)
		for _, v := range uses {
			if e.GetInt64(v) < 1000 {
				low++
			}
		}
		e.SetInt64("low", low)
		return nil
	}, uses, []txir.Var{"low"})
	return p
}

// stockLevelManual groups the district read and then the stock reads in
// pairs, the way a programmer would chunk them.
func stockLevelManual() [][]int {
	groups := [][]int{{0}}
	for k := 1; k <= StockLevelChecks; k += 2 {
		g := []int{k}
		if k+1 <= StockLevelChecks {
			g = append(g, k+1)
		}
		groups = append(groups, g)
	}
	return groups
}

func init() {
	workload.RegisterProgram("tpcc", "new-order", NewOrderProgram())
	workload.RegisterProgram("tpcc", "payment", PaymentProgram())
	workload.RegisterProgram("tpcc", "delivery", DeliveryProgram())
	workload.RegisterProgram("tpcc", "order-status", OrderStatusProgram())
	workload.RegisterProgram("tpcc", "stock-level", StockLevelProgram())
}
