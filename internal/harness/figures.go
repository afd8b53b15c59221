package harness

import (
	"fmt"
	"strings"

	"qracn/internal/workload"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
	"qracn/internal/workload/vacation"
)

// Figure describes one panel of the paper's Figure 4.
type Figure struct {
	// ID is the panel label ("4a".."4f").
	ID string
	// Title describes the workload.
	Title string
	// Expect quotes the paper's headline numbers for the panel.
	Expect string

	// workload builds a fresh instance per experiment; phases is the
	// panel's contention-shift schedule (nil: none).
	workload func() workload.Workload
	phases   []int
}

// Options builds the panel's experiment on a base Options — the paper's
// testbed (10 servers, up to 20 clients, 10-second intervals) mapped onto the
// in-process cluster: the zero base runs each figure in a few seconds, and
// cmd/qracn-bench's flags stretch it back out. Only Workload, Intervals and
// PhaseSchedule are set; everything else is the caller's.
func (f Figure) Options(base Options) Options {
	base.Workload = f.workload()
	base.Intervals = 6
	base.PhaseSchedule = f.phases
	return base
}

// tpccFigure is a TPC-C panel on the evaluation's table sizes.
func tpccFigure(cfg tpcc.Config) func() workload.Workload {
	cfg.CustomersPerDistrict, cfg.Items = 20, 100
	return func() workload.Workload { return tpcc.New(cfg) }
}

// Figures returns every panel of the evaluation, in paper order.
func Figures() []Figure {
	return []Figure{
		{
			ID:       "4a",
			Title:    "TPC-C, 100% NewOrder",
			Expect:   "after kick-in: QR-ACN +53% vs QR-DTM, +38% vs QR-CN (District is the hot spot)",
			workload: tpccFigure(tpcc.Config{Warehouses: 1, Districts: 4, MixNewOrder: 100}),
		},
		{
			ID:       "4b",
			Title:    "TPC-C, 100% Payment",
			Expect:   "QR-ACN below baselines at t1, then +53% vs QR-DTM, +45% vs QR-CN (District+Warehouse hot)",
			workload: tpccFigure(tpcc.Config{Warehouses: 1, Districts: 4, MixPayment: 100}),
		},
		{
			ID:       "4c",
			Title:    "TPC-C, 50% NewOrder + 50% Payment",
			Expect:   "after kick-in: QR-ACN +28% vs QR-DTM, +9% vs QR-CN",
			workload: tpccFigure(tpcc.Config{Warehouses: 1, Districts: 4, MixNewOrder: 50, MixPayment: 50}),
		},
		{
			ID:       "4d",
			Title:    "TPC-C, 100% Delivery (uniformly low contention)",
			Expect:   "no system wins; QR-ACN within 3% of QR-CN (overhead bound)",
			workload: tpccFigure(tpcc.Config{Warehouses: 4, Districts: 10, MixDelivery: 100}),
		},
		{
			ID:     "4e",
			Title:  "Vacation, hot table shifts at t2 and t4",
			Expect: "t2: QR-ACN +120% vs QR-DTM, +35% vs QR-CN; t4 onward: +8% vs QR-DTM",
			workload: func() workload.Workload {
				return vacation.New(vacation.Config{Rows: 300, HotRows: 2, Customers: 500, QueryPct: 10})
			},
			phases: []int{0, 1, 1, 2, 2, 2},
		},
		{
			ID:     "4f",
			Title:  "Bank, 90% writes, hot class flips at t2 and t4",
			Expect: "QR-CN best at t1 (ACN still monitoring); then QR-ACN gains up to 55%",
			workload: func() workload.Workload {
				return bank.New(bank.Config{Branches: 50, Accounts: 1000, HotBranches: 8, HotAccounts: 8, WritePct: 90})
			},
			phases: []int{0, 1, 1, 0, 0, 0},
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
