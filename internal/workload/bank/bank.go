// Package bank implements the Bank benchmark of the paper's evaluation
// (§VI-C and the running example of §V-A): transfers move funds between two
// accounts and their two branches. Branch objects are shared by every
// transfer that touches the branch, so whichever class the current phase
// concentrates its draws on becomes the system hot spot; the harness flips
// the hot class between phases to reproduce Fig. 4(f).
package bank

import (
	"math/rand"

	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/workload"
)

// Config sizes the benchmark.
type Config struct {
	// Branches and Accounts size the object space (defaults 50 / 1000).
	Branches int
	Accounts int
	// HotBranches / HotAccounts are the sizes of the concentrated draw sets
	// in the phases where the respective class is hot (defaults 2 / 2).
	HotBranches int
	HotAccounts int
	// WritePct is the percentage of transfer (write) transactions; the
	// remainder are balance queries (default 90, the paper's Bank setup).
	WritePct int
	// InitialBalance seeds every branch and account (default 1,000,000).
	InitialBalance int64
	// Amount is the transfer amount (default 5).
	Amount int
}

func (c *Config) fillDefaults() {
	if c.Branches == 0 {
		c.Branches = 50
	}
	if c.Accounts == 0 {
		c.Accounts = 1000
	}
	if c.HotBranches == 0 {
		c.HotBranches = 8
	}
	if c.HotAccounts == 0 {
		c.HotAccounts = 8
	}
	if c.WritePct == 0 {
		c.WritePct = 90
	}
	if c.InitialBalance == 0 {
		c.InitialBalance = 1_000_000
	}
	if c.Amount == 0 {
		c.Amount = 5
	}
}

// Bank is the benchmark instance.
type Bank struct {
	cfg      Config
	profiles []workload.Profile
}

// Profile indices.
const (
	ProfileTransfer = 0
	ProfileBalance  = 1
)

// New builds the benchmark.
func New(cfg Config) *Bank {
	cfg.fillDefaults()
	b := &Bank{cfg: cfg}
	b.profiles = []workload.Profile{
		{
			Name:    "transfer",
			Program: TransferProgram(),
			// The programmer's Fig. 2 configuration: account operations as
			// separate sub-transactions first, both branch operations in
			// one closed-nested transaction just before commit. Optimal
			// while branches are hot; it cannot adapt when the hot class
			// flips to accounts.
			Manual: [][]int{{2}, {3}, {0, 1}},
		},
		{
			Name:    "balance",
			Program: BalanceProgram(),
			Manual:  [][]int{{0}, {1}},
		},
	}
	return b
}

// Name implements workload.Workload.
func (b *Bank) Name() string { return "bank" }

// Profiles implements workload.Workload.
func (b *Bank) Profiles() []workload.Profile { return b.profiles }

// Phases implements workload.Workload: phase 0 = branches hot,
// phase 1 = accounts hot.
func (b *Bank) Phases() int { return 2 }

// SeedObjects implements workload.Workload.
func (b *Bank) SeedObjects() map[store.ObjectID]store.Value {
	objs := make(map[store.ObjectID]store.Value, b.cfg.Branches+b.cfg.Accounts)
	for i := 0; i < b.cfg.Branches; i++ {
		objs[store.IntID("branch", i)] = store.Int64(b.cfg.InitialBalance)
	}
	for i := 0; i < b.cfg.Accounts; i++ {
		objs[store.IntID("account", i)] = store.Int64(b.cfg.InitialBalance)
	}
	return objs
}

// Generate implements workload.Workload.
func (b *Bank) Generate(rng *rand.Rand, phase int) (int, map[string]any) {
	var sb, db, sa, da int
	if phase%2 == 0 {
		// Branches hot: draws concentrate on a few branches; accounts
		// spread out.
		sb, db = workload.Pick2(rng, b.cfg.HotBranches)
		sa, da = workload.Pick2(rng, b.cfg.Accounts)
	} else {
		// Accounts hot: the inverse.
		sb, db = workload.Pick2(rng, b.cfg.Branches)
		sa, da = workload.Pick2(rng, b.cfg.HotAccounts)
	}
	params := map[string]any{
		"srcBranch": sb, "dstBranch": db,
		"srcAcct": sa, "dstAcct": da,
		"amount": b.cfg.Amount,
	}
	if rng.Intn(100) < b.cfg.WritePct {
		return ProfileTransfer, params
	}
	return ProfileBalance, params
}

// TransferProgram is the paper's Fig. 1 flat transaction: branch operations
// first (as the TPC-like spec writes them), then account operations.
// UnitBlocks: 0 = branch1, 1 = branch2, 2 = account1, 3 = account2.
func TransferProgram() *txir.Program {
	p := txir.NewProgram("bank-transfer")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("amt", int64(e.ParamInt("amount")))
		return nil
	}, nil, []txir.Var{"amt"})
	p.ReadP("branch", "b1", "srcBranch")
	p.ReadP("branch", "b2", "dstBranch")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("nb1", e.GetInt64("b1")-e.GetInt64("amt"))
		e.SetInt64("nb2", e.GetInt64("b2")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"b1", "b2", "amt"}, []txir.Var{"nb1", "nb2"})
	p.WriteP("branch", "nb1", "srcBranch")
	p.WriteP("branch", "nb2", "dstBranch")
	p.ReadP("account", "a1", "srcAcct")
	p.ReadP("account", "a2", "dstAcct")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("na1", e.GetInt64("a1")-e.GetInt64("amt"))
		e.SetInt64("na2", e.GetInt64("a2")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"a1", "a2", "amt"}, []txir.Var{"na1", "na2"})
	p.WriteP("account", "na1", "srcAcct")
	p.WriteP("account", "na2", "dstAcct")
	return p
}

// BalanceProgram is the read-only profile: report a customer's account
// balance together with its branch total.
func BalanceProgram() *txir.Program {
	p := txir.NewProgram("bank-balance")
	p.ReadP("branch", "b", "srcBranch")
	p.ReadP("account", "a", "srcAcct")
	p.Local(func(e *txir.Env) error {
		e.SetInt64("sum", e.GetInt64("b")+e.GetInt64("a"))
		return nil
	}, []txir.Var{"b", "a"}, []txir.Var{"sum"})
	return p
}

func init() {
	workload.RegisterProgram("bank", "transfer", TransferProgram())
	workload.RegisterProgram("bank", "balance", BalanceProgram())
}
