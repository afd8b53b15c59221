package harness

import (
	"fmt"
	"strings"
	"time"

	"qracn/internal/metrics"
)

// Improvement returns the percentage by which mode outperforms base in the
// given interval (e.g. 53 means +53%). It returns 0 when the base measured
// nothing.
func (r *Result) Improvement(mode, base Mode, interval int) float64 {
	ms, bs := r.Series[mode], r.Series[base]
	if ms == nil || bs == nil || interval >= len(ms.Throughput) || interval >= len(bs.Throughput) {
		return 0
	}
	if bs.Throughput[interval] == 0 {
		return 0
	}
	return 100 * (ms.Throughput[interval] - bs.Throughput[interval]) / bs.Throughput[interval]
}

// PeakImprovement returns the best per-interval improvement of mode over
// base after the adaptation kick-in (interval 1 onward), along with the
// interval where it occurs.
func (r *Result) PeakImprovement(mode, base Mode) (float64, int) {
	best, bestAt := 0.0, -1
	ms := r.Series[mode]
	if ms == nil {
		return 0, -1
	}
	for i := 1; i < len(ms.Throughput); i++ {
		if imp := r.Improvement(mode, base, i); bestAt == -1 || imp > best {
			best, bestAt = imp, i
		}
	}
	return best, bestAt
}

// SteadyImprovement averages the improvement over the final third of the
// run, where every system has settled.
func (r *Result) SteadyImprovement(mode, base Mode) float64 {
	ms := r.Series[mode]
	if ms == nil || len(ms.Throughput) == 0 {
		return 0
	}
	n := len(ms.Throughput)
	from := n - n/3
	if from >= n {
		from = n - 1
	}
	var sum float64
	count := 0
	for i := from; i < n; i++ {
		sum += r.Improvement(mode, base, i)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Table renders the per-interval throughput of every measured system, the
// format of the paper's Figure 4 panels.
func (r *Result) Table() string {
	var b strings.Builder
	modes := make([]Mode, 0, len(r.Series))
	for _, m := range AllModesWithCheckpoint {
		if r.Series[m] != nil {
			modes = append(modes, m)
		}
	}
	fmt.Fprintf(&b, "%-10s", "interval")
	for _, m := range modes {
		fmt.Fprintf(&b, "%12s", m)
	}
	fmt.Fprintln(&b)
	n := 0
	for _, m := range modes {
		if len(r.Series[m].Throughput) > n {
			n = len(r.Series[m].Throughput)
		}
	}
	for i := 0; i < n; i++ {
		phase := r.Options.phaseFor(i)
		fmt.Fprintf(&b, "t%-2d (ph%d) ", i+1, phase)
		for _, m := range modes {
			tp := r.Series[m].Throughput
			if i < len(tp) {
				fmt.Fprintf(&b, "%12.0f", tp[i])
			} else {
				fmt.Fprintf(&b, "%12s", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Summary renders headline comparisons (peak and steady-state improvements
// of QR-ACN over both baselines) plus abort statistics.
func (r *Result) Summary() string {
	var b strings.Builder
	if r.Series[ModeQRACN] != nil {
		if r.Series[ModeQRDTM] != nil {
			peak, at := r.PeakImprovement(ModeQRACN, ModeQRDTM)
			fmt.Fprintf(&b, "QR-ACN vs QR-DTM: peak %+.0f%% (t%d), steady %+.0f%%\n",
				peak, at+1, r.SteadyImprovement(ModeQRACN, ModeQRDTM))
		}
		if r.Series[ModeQRCN] != nil {
			peak, at := r.PeakImprovement(ModeQRACN, ModeQRCN)
			fmt.Fprintf(&b, "QR-ACN vs QR-CN:  peak %+.0f%% (t%d), steady %+.0f%%\n",
				peak, at+1, r.SteadyImprovement(ModeQRACN, ModeQRCN))
		}
	}
	for _, m := range AllModesWithCheckpoint {
		s := r.Series[m]
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "%-7s commits=%-7d full-aborts=%-6d partial-aborts=%-6d busy=%-6d remote-reads=%d",
			m, s.Metrics.Commits, s.Metrics.ParentAborts, s.Metrics.SubAborts,
			s.Metrics.BusyBackoffs, s.Metrics.RemoteReads)
		if s.MeanLatency > 0 {
			fmt.Fprintf(&b, " latency(mean/p99)=%v/%v",
				s.MeanLatency.Round(10*time.Microsecond), s.P99Latency.Round(10*time.Microsecond))
		}
		if s.DroppedCommits > 0 {
			fmt.Fprintf(&b, " dropped=%d", s.DroppedCommits)
		}
		fmt.Fprintln(&b)
		a, mm := s.Admission, s.Metrics
		if a.Admitted+a.Shed+a.Expired+mm.OverloadBackoffs+mm.BudgetExhausted+mm.HedgesFired > 0 {
			fmt.Fprintf(&b, "        overload: admitted=%d shed=%d expired=%d backoffs=%d budget-exhausted=%d hedges=%d hedge-wins=%d\n",
				a.Admitted, a.Shed, a.Expired,
				mm.OverloadBackoffs, mm.BudgetExhausted, mm.HedgesFired, mm.HedgeWins)
		}
		if mm.AbortsReadValidation+mm.AbortsLockConflict+mm.AbortsCommitRound+
			mm.AbortsDeadline+mm.AbortsOverload > 0 {
			fmt.Fprintf(&b, "        forensics: read-val=%d lock=%d commit-round=%d deadline=%d overload=%d blocks=[%d %d %d %d]",
				mm.AbortsReadValidation, mm.AbortsLockConflict, mm.AbortsCommitRound,
				mm.AbortsDeadline, mm.AbortsOverload,
				mm.AbortsBlock0, mm.AbortsBlock1, mm.AbortsBlock2, mm.AbortsBlock3Plus)
			for i, h := range s.Forensics.HotKeys {
				if i == 3 {
					break
				}
				fmt.Fprintf(&b, " %s(%d)", h.Key, h.Conflicts)
			}
			fmt.Fprintln(&b)
		}
		if s.Shards != nil {
			fmt.Fprintf(&b, "        cross-shard ratio=%.2f (single=%d cross=%d cross-aborts=%d)\n",
				s.CrossShardRatio, s.Metrics.SingleShardCommits,
				s.Metrics.CrossShardCommits, s.Metrics.CrossShardAborts)
			for i, c := range s.Shards {
				fmt.Fprintf(&b, "        shard %d: commits=%-7d full-aborts=%-6d partial-aborts=%d\n",
					i, c.Commits, c.ParentAborts, c.SubAborts)
			}
		}
	}
	return b.String()
}

// StageReport renders the per-stage latency percentiles of every measured
// system: where a transaction's wall-clock time goes (quorum read, batched
// prefetch, 2PC prepare, whole commit, and — on durable runs — the servers'
// group-commit fsync wait).
func (r *Result) StageReport() string {
	var b strings.Builder
	for _, m := range AllModesWithCheckpoint {
		s := r.Series[m]
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "%s stages:\n", m)
		rows := []struct {
			name string
			sum  metrics.Summary
		}{
			{"read", s.Stages.Read},
			{"prefetch-batch", s.Stages.PrefetchBatch},
			{"prepare", s.Stages.Prepare},
			{"commit", s.Stages.Commit},
			{"fsync-wait", s.FsyncWait},
		}
		for _, row := range rows {
			if row.sum.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-15s %s\n", row.name, row.sum)
		}
	}
	return b.String()
}
