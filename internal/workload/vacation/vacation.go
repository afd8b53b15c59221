// Package vacation implements the STAMP Vacation benchmark as the paper's
// evaluation uses it (§VI-B): a travel reservation system over car, flight,
// and room tables plus customer records. A reservation books one entry of
// each table and bills the customer. The experiment's defining feature is a
// *shifting* hot table: in each phase the draws for one table concentrate on
// a handful of rows while the others spread wide, so the system hot spot
// migrates between tables — exactly the situation where a fixed manual
// decomposition goes stale and ACN adapts (Fig. 4(e)).
package vacation

import (
	"math/rand"

	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/workload"
)

// Config sizes the benchmark.
type Config struct {
	// Rows per table (cars, flights, rooms); default 300.
	Rows int
	// Customers (default 500).
	Customers int
	// HotRows is the size of the concentrated draw set for the phase's hot
	// table (default 2).
	HotRows int
	// QueryPct is the percentage of read-only queries and UpdatePct the
	// percentage of admin table updates / customer deletions (as in the
	// STAMP mix); the remainder are reservations. Defaults 10 / 0.
	QueryPct  int
	UpdatePct int
	// InitialSeats seeds every row's availability (default 1,000,000).
	InitialSeats int64
}

func (c *Config) fillDefaults() {
	if c.Rows == 0 {
		c.Rows = 300
	}
	if c.Customers == 0 {
		c.Customers = 500
	}
	if c.HotRows == 0 {
		c.HotRows = 2
	}
	if c.QueryPct == 0 {
		c.QueryPct = 10
	}
	if c.InitialSeats == 0 {
		c.InitialSeats = 1_000_000
	}
}

// Vacation is the benchmark instance.
type Vacation struct {
	cfg      Config
	profiles []workload.Profile
}

// Profile indices.
const (
	ProfileReserve = 0
	ProfileQuery   = 1
	ProfileUpdate  = 2
	ProfileDelete  = 3
)

// Tables in fixed program order.
var tables = []string{"car", "flight", "room"}

// New builds the benchmark.
func New(cfg Config) *Vacation {
	cfg.fillDefaults()
	v := &Vacation{cfg: cfg}
	v.profiles = []workload.Profile{
		{
			Name:    "reserve",
			Program: ReserveProgram(),
			// The programmer's decomposition: one closed-nested transaction
			// per table in program order, customer last. Tuned for nothing
			// in particular — and unable to follow the hot table around.
			Manual: [][]int{{0}, {1}, {2}, {3}},
		},
		{
			Name:    "query",
			Program: QueryProgram(),
			Manual:  [][]int{{0}, {1}, {2}},
		},
		{
			Name:    "update-tables",
			Program: UpdateTablesProgram(),
			Manual:  [][]int{{0}, {1}, {2}},
		},
		{
			Name:    "delete-customer",
			Program: DeleteCustomerProgram(),
			Manual:  nil, // single access: closed nesting cannot help
		},
	}
	return v
}

// Name implements workload.Workload.
func (v *Vacation) Name() string { return "vacation" }

// Profiles implements workload.Workload.
func (v *Vacation) Profiles() []workload.Profile { return v.profiles }

// Phases implements workload.Workload: the hot table cycles car → flight →
// room.
func (v *Vacation) Phases() int { return len(tables) }

// SeedObjects implements workload.Workload.
func (v *Vacation) SeedObjects() map[store.ObjectID]store.Value {
	objs := make(map[store.ObjectID]store.Value)
	for _, tbl := range tables {
		for i := 0; i < v.cfg.Rows; i++ {
			objs[store.IntID(tbl, i)] = store.Int64(v.cfg.InitialSeats)
		}
	}
	for i := 0; i < v.cfg.Customers; i++ {
		objs[store.IntID("customer", i)] = store.Int64(0) // bill
	}
	return objs
}

// Generate implements workload.Workload.
func (v *Vacation) Generate(rng *rand.Rand, phase int) (int, map[string]any) {
	hot := phase % len(tables)
	params := map[string]any{
		"cust": rng.Intn(v.cfg.Customers),
	}
	for ti, tbl := range tables {
		if ti == hot {
			params[tbl] = rng.Intn(v.cfg.HotRows)
		} else {
			params[tbl] = rng.Intn(v.cfg.Rows)
		}
	}
	roll := rng.Intn(100)
	switch {
	case roll < v.cfg.QueryPct:
		return ProfileQuery, params
	case roll < v.cfg.QueryPct+v.cfg.UpdatePct:
		if roll%2 == 0 {
			params["delta"] = 1 + rng.Intn(10)
			return ProfileUpdate, params
		}
		return ProfileDelete, params
	default:
		return ProfileReserve, params
	}
}

// ReserveProgram books one car, one flight, and one room (decrementing each
// table row's availability) and bills the customer. The four accesses are
// mutually independent, so ACN is free to reorder them by contention.
// UnitBlocks: 0 car, 1 flight, 2 room, 3 customer.
func ReserveProgram() *txir.Program {
	p := txir.NewProgram("vacation-reserve")
	for _, tbl := range tables {
		tbl := tbl
		val := txir.Var(tbl)
		nval := txir.Var("n" + tbl)
		p.ReadP(tbl, val, tbl)
		p.Local(func(e *txir.Env) error {
			e.SetInt64(nval, e.GetInt64(val)-1)
			return nil
		}, []txir.Var{val}, []txir.Var{nval})
		p.WriteP(tbl, nval, tbl)
	}
	p.ReadP("customer", "cust", "cust")
	p.Local(func(e *txir.Env) error {
		// Bill: one unit per booked resource.
		e.SetInt64("ncust", e.GetInt64("cust")+int64(len(tables)))
		return nil
	}, []txir.Var{"cust"}, []txir.Var{"ncust"})
	p.WriteP("customer", "ncust", "cust")
	return p
}

// UpdateTablesProgram is the STAMP admin profile: replenish availability of
// one row in each table. UnitBlocks: 0 car, 1 flight, 2 room.
func UpdateTablesProgram() *txir.Program {
	p := txir.NewProgram("vacation-update-tables")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("d", int64(e.ParamInt("delta")))
		return nil
	}, nil, []txir.Var{"d"})
	for _, tbl := range tables {
		tbl := tbl
		val := txir.Var(tbl)
		nval := txir.Var("u" + tbl)
		p.ReadP(tbl, val, tbl)
		p.Local(func(e *txir.Env) error {
			e.SetInt64(nval, e.GetInt64(val)+e.GetInt64("d"))
			return nil
		}, []txir.Var{val, "d"}, []txir.Var{nval})
		p.WriteP(tbl, nval, tbl)
	}
	return p
}

// DeleteCustomerProgram is the STAMP customer-removal profile: zero the
// customer's bill. A single remote access — exactly the kind of transaction
// where closed nesting cannot help and ACN must stay out of the way.
func DeleteCustomerProgram() *txir.Program {
	p := txir.NewProgram("vacation-delete-customer")
	p.ReadP("customer", "cust", "cust")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("zero", 0)
		return nil
	}, []txir.Var{"cust"}, []txir.Var{"zero"})
	p.WriteP("customer", "zero", "cust")
	return p
}

// QueryProgram is the read-only profile: check availability across the
// three tables for a trip.
func QueryProgram() *txir.Program {
	p := txir.NewProgram("vacation-query")
	for _, tbl := range tables {
		p.ReadP(tbl, txir.Var(tbl), tbl)
	}
	p.Local(func(e *txir.Env) error {
		min := e.GetInt64(txir.Var(tables[0]))
		for _, tbl := range tables[1:] {
			if v := e.GetInt64(txir.Var(tbl)); v < min {
				min = v
			}
		}
		e.SetInt64("avail", min)
		return nil
	}, []txir.Var{"car", "flight", "room"}, []txir.Var{"avail"})
	return p
}

func init() {
	workload.RegisterProgram("vacation", "reserve", ReserveProgram())
	workload.RegisterProgram("vacation", "query", QueryProgram())
	workload.RegisterProgram("vacation", "update-tables", UpdateTablesProgram())
	workload.RegisterProgram("vacation", "delete-customer", DeleteCustomerProgram())
}
