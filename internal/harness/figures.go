package harness

import (
	"fmt"
	"strings"
	"time"

	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
	"qracn/internal/workload/vacation"
)

// Scale maps the paper's testbed (10 servers, up to 20 clients, 10-second
// intervals) onto the in-process cluster. The default runs each figure in a
// few seconds; cmd/qracn-bench exposes flags to stretch it back out.
type Scale struct {
	IntervalLength   time.Duration
	Clients          int
	ThreadsPerClient int
	Servers          int
	Seed             int64
	DisablePrefetch  bool
	NoRepair         bool
	Durable          bool
	WALDir           string
	FsyncInterval    time.Duration
	SnapshotEvery    int
	TraceCapacity    int
	TraceSample      int
	// DecideTimeout bounds each client's 2PC decision delivery;
	// ResolveAfter (>0) runs the nodes' cooperative termination loop with
	// that in-doubt deadline. Both zero by default.
	DecideTimeout time.Duration
	ResolveAfter  time.Duration
	// Shards > 1 partitions the keyspace across that many independent
	// quorum groups (0/1: one cluster-wide tree quorum).
	Shards int
	// Overload-protection knobs, mirrored from Options: MaxInflight > 0
	// gates every node's concurrency, TxDeadline bounds each transaction
	// end to end, RetryBudget caps per-attempt retries, and HedgeAfter
	// hedges slow quorum reads. All zero (off) by default.
	MaxInflight int
	QueueDepth  int
	MaxQueueAge time.Duration
	TxDeadline  time.Duration
	RetryBudget int
	HedgeAfter  time.Duration
	// Forensics knobs, mirrored from Options: ring capacity per recorder
	// (0: default) and the switch that turns attribution off entirely.
	ForensicsRing int
	NoForensics   bool
}

// DefaultScale is used by the benchmark suite.
func DefaultScale() Scale {
	return Scale{
		IntervalLength:   400 * time.Millisecond,
		Clients:          8,
		ThreadsPerClient: 2,
		Servers:          10,
		Seed:             1,
	}
}

func (s Scale) apply(o Options) Options {
	o.IntervalLength = s.IntervalLength
	o.Clients = s.Clients
	o.ThreadsPerClient = s.ThreadsPerClient
	o.Servers = s.Servers
	o.Seed = s.Seed
	o.DisablePrefetch = s.DisablePrefetch
	o.NoRepair = s.NoRepair
	o.Durable = s.Durable
	o.WALDir = s.WALDir
	o.FsyncInterval = s.FsyncInterval
	o.SnapshotEvery = s.SnapshotEvery
	o.TraceCapacity = s.TraceCapacity
	o.TraceSample = s.TraceSample
	o.DecideTimeout = s.DecideTimeout
	o.ResolveAfter = s.ResolveAfter
	o.Shards = s.Shards
	o.MaxInflight = s.MaxInflight
	o.QueueDepth = s.QueueDepth
	o.MaxQueueAge = s.MaxQueueAge
	o.TxDeadline = s.TxDeadline
	o.RetryBudget = s.RetryBudget
	o.HedgeAfter = s.HedgeAfter
	o.ForensicsRing = s.ForensicsRing
	o.NoForensics = s.NoForensics
	return o
}

// Figure describes one panel of the paper's Figure 4.
type Figure struct {
	// ID is the panel label ("4a".."4f").
	ID string
	// Title describes the workload.
	Title string
	// Expect quotes the paper's headline numbers for the panel.
	Expect string
	// Options builds the experiment for a given scale.
	Options func(Scale) Options
}

// Figures returns every panel of the evaluation, in paper order.
func Figures() []Figure {
	return []Figure{
		{
			ID:     "4a",
			Title:  "TPC-C, 100% NewOrder",
			Expect: "after kick-in: QR-ACN +53% vs QR-DTM, +38% vs QR-CN (District is the hot spot)",
			Options: func(s Scale) Options {
				return s.apply(Options{
					Workload: tpcc.New(tpcc.Config{
						Warehouses: 1, Districts: 4, CustomersPerDistrict: 20,
						Items: 100, MixNewOrder: 100,
					}),
					Intervals: 6,
				})
			},
		},
		{
			ID:     "4b",
			Title:  "TPC-C, 100% Payment",
			Expect: "QR-ACN below baselines at t1, then +53% vs QR-DTM, +45% vs QR-CN (District+Warehouse hot)",
			Options: func(s Scale) Options {
				return s.apply(Options{
					Workload: tpcc.New(tpcc.Config{
						Warehouses: 1, Districts: 4, CustomersPerDistrict: 20,
						Items: 100, MixPayment: 100,
					}),
					Intervals: 6,
				})
			},
		},
		{
			ID:     "4c",
			Title:  "TPC-C, 50% NewOrder + 50% Payment",
			Expect: "after kick-in: QR-ACN +28% vs QR-DTM, +9% vs QR-CN",
			Options: func(s Scale) Options {
				return s.apply(Options{
					Workload: tpcc.New(tpcc.Config{
						Warehouses: 1, Districts: 4, CustomersPerDistrict: 20,
						Items: 100, MixNewOrder: 50, MixPayment: 50,
					}),
					Intervals: 6,
				})
			},
		},
		{
			ID:     "4d",
			Title:  "TPC-C, 100% Delivery (uniformly low contention)",
			Expect: "no system wins; QR-ACN within 3% of QR-CN (overhead bound)",
			Options: func(s Scale) Options {
				return s.apply(Options{
					Workload: tpcc.New(tpcc.Config{
						Warehouses: 4, Districts: 10, CustomersPerDistrict: 20,
						Items: 100, MixDelivery: 100,
					}),
					Intervals: 6,
				})
			},
		},
		{
			ID:     "4e",
			Title:  "Vacation, hot table shifts at t2 and t4",
			Expect: "t2: QR-ACN +120% vs QR-DTM, +35% vs QR-CN; t4 onward: +8% vs QR-DTM",
			Options: func(s Scale) Options {
				return s.apply(Options{
					Workload: vacation.New(vacation.Config{
						Rows: 300, HotRows: 2, Customers: 500, QueryPct: 10,
					}),
					Intervals:     6,
					PhaseSchedule: []int{0, 1, 1, 2, 2, 2},
				})
			},
		},
		{
			ID:     "4f",
			Title:  "Bank, 90% writes, hot class flips at t2 and t4",
			Expect: "QR-CN best at t1 (ACN still monitoring); then QR-ACN gains up to 55%",
			Options: func(s Scale) Options {
				return s.apply(Options{
					Workload: bank.New(bank.Config{
						Branches: 50, Accounts: 1000, HotBranches: 8, HotAccounts: 8,
						WritePct: 90,
					}),
					Intervals:     6,
					PhaseSchedule: []int{0, 1, 1, 0, 0, 0},
				})
			},
		},
	}
}

// PartialAbortRatio is one system's partial share of all aborts in a run:
// SubAborts / (SubAborts + ParentAborts), 0 when the run never aborted. The
// Figure-4 crossover story depends on it — QR-ACN wins exactly when this
// ratio climbs, because only partial rollbacks avoid full re-execution.
func (s *Series) PartialAbortRatio() float64 {
	total := s.Metrics.ParentAborts + s.Metrics.SubAborts
	if total == 0 {
		return 0
	}
	return float64(s.Metrics.SubAborts) / float64(total)
}

// AbortRatioTable renders the partial-vs-full abort split of every measured
// system, one row per mode — the per-workload companion the figures output
// prints next to each Figure-4 panel, fed from the forensic per-cause
// counters (the dominant cause column says WHY the losing systems abort).
func (r *Result) AbortRatioTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %9s %9s %14s  %s\n",
		"system", "partial", "full", "partial-ratio", "dominant-cause")
	for _, m := range AllModesWithCheckpoint {
		s := r.Series[m]
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "%-7s %9d %9d %14.2f  %s\n",
			m, s.Metrics.SubAborts, s.Metrics.ParentAborts,
			s.PartialAbortRatio(), s.dominantCause())
	}
	return b.String()
}

// dominantCause names the abort cause with the highest forensic counter
// ("none" when the run recorded no attributed abort).
func (s *Series) dominantCause() string {
	causes := []struct {
		name string
		n    uint64
	}{
		{"read-validation", s.Metrics.AbortsReadValidation},
		{"lock-conflict", s.Metrics.AbortsLockConflict},
		{"commit-round", s.Metrics.AbortsCommitRound},
		{"deadline", s.Metrics.AbortsDeadline},
		{"overload", s.Metrics.AbortsOverload},
	}
	best := "none"
	var bestN uint64
	for _, c := range causes {
		if c.n > bestN {
			best, bestN = c.name, c.n
		}
	}
	return best
}

// FigureByID looks a panel up by label.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}
