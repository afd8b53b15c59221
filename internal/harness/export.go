package harness

import (
	"encoding/json"

	"qracn/internal/forensics"
	"qracn/internal/metrics"
)

// exportedSummary is the stable JSON schema for one latency-histogram
// digest (all latencies in microseconds).
type exportedSummary struct {
	Count  uint64 `json:"count"`
	MeanUS int64  `json:"mean_us"`
	P50US  int64  `json:"p50_us"`
	P95US  int64  `json:"p95_us"`
	P99US  int64  `json:"p99_us"`
}

func exportSummary(s metrics.Summary) *exportedSummary {
	if s.Count == 0 {
		return nil
	}
	return &exportedSummary{
		Count:  s.Count,
		MeanUS: s.Mean.Microseconds(),
		P50US:  s.P50.Microseconds(),
		P95US:  s.P95.Microseconds(),
		P99US:  s.P99.Microseconds(),
	}
}

// exportedSeries is the stable JSON schema for one system's measurements.
type exportedSeries struct {
	System         string    `json:"system"`
	Throughput     []float64 `json:"throughput_tx_per_s"`
	Commits        uint64    `json:"commits"`
	MeanLatencyUS  int64     `json:"mean_latency_us"`
	P99LatencyUS   int64     `json:"p99_latency_us"`
	FullAborts     uint64    `json:"full_aborts"`
	PartialAborts  uint64    `json:"partial_aborts"`
	BusyBackoffs   uint64    `json:"busy_backoffs"`
	RemoteReads    uint64    `json:"remote_reads"`
	ReadOnlyFastOK uint64    `json:"read_only_validations"`
	// DroppedCommits counts commits outside the measurement window.
	DroppedCommits uint64 `json:"dropped_commits,omitempty"`
	// Stage latency digests (absent when the stage never ran).
	ReadStage     *exportedSummary `json:"read_stage,omitempty"`
	PrefetchStage *exportedSummary `json:"prefetch_stage,omitempty"`
	PrepareStage  *exportedSummary `json:"prepare_stage,omitempty"`
	CommitStage   *exportedSummary `json:"commit_stage,omitempty"`
	FsyncWait     *exportedSummary `json:"fsync_wait,omitempty"`
	// WAL is present only for durable runs.
	WAL *exportedWAL `json:"wal,omitempty"`
	// Resolution is present only when some vote entered cooperative
	// termination during the run.
	Resolution *exportedResolution `json:"resolution,omitempty"`
	// Overload is present only when admission control, deadlines, retry
	// budgets, or read hedging did anything during the run.
	Overload *exportedOverload `json:"overload,omitempty"`
	// Sharding is present only on sharded runs.
	Sharding *exportedSharding `json:"sharding,omitempty"`
	// Forensics is present whenever the run recorded any abort attribution
	// or controller decision (absent on NoForensics runs with no aborts).
	Forensics *exportedForensics `json:"forensics,omitempty"`
}

// forensicsEventCap bounds how many raw abort events the JSON export embeds;
// the full rings stay queryable live via qracn-inspect forensics.
const forensicsEventCap = 64

// exportedForensics is the stable JSON schema for a run's abort attribution:
// the per-cause and per-block counters, the partial-vs-full split, the
// conflict hot-key ranking, and a bounded sample of raw events.
type exportedForensics struct {
	AbortsReadValidation uint64 `json:"aborts_read_validation"`
	AbortsLockConflict   uint64 `json:"aborts_lock_conflict"`
	AbortsCommitRound    uint64 `json:"aborts_commit_round"`
	AbortsDeadline       uint64 `json:"aborts_deadline"`
	AbortsOverload       uint64 `json:"aborts_overload"`
	// BlockHistogram is aborts by Block position: [block 0, 1, 2, 3+].
	BlockHistogram [4]uint64 `json:"block_histogram"`
	// PartialRatio is partial aborts / all aborts (0 when no aborts).
	PartialRatio float64 `json:"partial_ratio"`
	// AttributionPct is the share of aborts carrying a concrete cause.
	AttributionPct float64 `json:"attribution_pct"`
	// Recomposes counts controller decisions; Applied the ones that swapped
	// the composition; MergeRefusals the merges declined across all of them.
	Recomposes        uint64 `json:"recomposes"`
	RecomposesApplied uint64 `json:"recomposes_applied"`
	MergeRefusals     uint64 `json:"merge_refusals"`
	// HotKeys ranks the most conflicted object IDs (client + server tallies).
	HotKeys []exportedHotKey `json:"hot_keys,omitempty"`
	// Events is a bounded tail sample of the merged abort ring.
	Events []forensics.AbortEvent `json:"events,omitempty"`
}

// exportedHotKey is one row of the conflict ranking.
type exportedHotKey struct {
	Key       string `json:"key"`
	Conflicts uint64 `json:"conflicts"`
}

// exportForensics folds one series' counters and merged snapshot into the
// JSON block (nil when the run recorded nothing forensic).
func exportForensics(s *Series) *exportedForensics {
	m := &s.Metrics
	attributed := m.AbortsReadValidation + m.AbortsLockConflict +
		m.AbortsCommitRound + m.AbortsDeadline + m.AbortsOverload
	total := m.ParentAborts + m.SubAborts
	if attributed == 0 && total == 0 && s.Forensics.TotalRecomposes == 0 {
		return nil
	}
	ef := &exportedForensics{
		AbortsReadValidation: m.AbortsReadValidation,
		AbortsLockConflict:   m.AbortsLockConflict,
		AbortsCommitRound:    m.AbortsCommitRound,
		AbortsDeadline:       m.AbortsDeadline,
		AbortsOverload:       m.AbortsOverload,
		BlockHistogram: [4]uint64{
			m.AbortsBlock0, m.AbortsBlock1, m.AbortsBlock2, m.AbortsBlock3Plus,
		},
		Recomposes: s.Forensics.TotalRecomposes,
	}
	if total > 0 {
		ef.PartialRatio = float64(m.SubAborts) / float64(total)
		// Synthetic deadline/overload events can attribute exits the abort
		// counters never saw, so clamp at full coverage.
		ef.AttributionPct = min(100, 100*float64(attributed)/float64(total))
	}
	for _, re := range s.Forensics.Recomposes {
		if re.Applied {
			ef.RecomposesApplied++
		}
		ef.MergeRefusals += uint64(len(re.Refusals))
	}
	for _, h := range s.Forensics.HotKeys {
		ef.HotKeys = append(ef.HotKeys, exportedHotKey{Key: h.Key, Conflicts: h.Conflicts})
	}
	ev := s.Forensics.Aborts
	if len(ev) > forensicsEventCap {
		ev = ev[len(ev)-forensicsEventCap:]
	}
	ef.Events = ev
	return ef
}

// exportedSharding is the stable JSON schema for a sharded run's routing
// breakdown: how commits split between the single-group fast path and
// cross-group 2PC, and each shard's share of the outcomes (a cross-shard
// transaction counts in every shard it touched).
type exportedSharding struct {
	SingleShardCommits uint64          `json:"single_shard_commits"`
	CrossShardCommits  uint64          `json:"cross_shard_commits"`
	CrossShardAborts   uint64          `json:"cross_shard_aborts"`
	CrossShardRatio    float64         `json:"cross_shard_ratio"`
	PerShard           []exportedShard `json:"per_shard"`
}

// exportedShard is one shard's outcome counts.
type exportedShard struct {
	Shard         int    `json:"shard"`
	Commits       uint64 `json:"commits"`
	FullAborts    uint64 `json:"full_aborts"`
	PartialAborts uint64 `json:"partial_aborts"`
}

// exportedWAL is the stable JSON schema for the commit-log counters of a
// durable run, summed across nodes.
type exportedWAL struct {
	Appends         uint64 `json:"appends"`
	Records         uint64 `json:"records"`
	Fsyncs          uint64 `json:"fsyncs"`
	MaxBatch        uint64 `json:"max_batch"`
	Snapshots       uint64 `json:"snapshots"`
	SegmentsRemoved uint64 `json:"segments_removed"`
	// FsyncsPerCommit is the group-commit amortization: physical syncs per
	// logged decision (lower is better; 1.0 means no batching happened).
	FsyncsPerCommit float64 `json:"fsyncs_per_commit"`
}

// exportedResolution is the stable JSON schema for the termination-protocol
// counters, summed across nodes: how many yes votes were stranded in doubt
// and which path decided each of them.
type exportedResolution struct {
	InDoubt            uint64 `json:"in_doubt"`
	RecoveredInDoubt   uint64 `json:"recovered_in_doubt"`
	CoordinatorDecided uint64 `json:"coordinator_decided"`
	PeerCommits        uint64 `json:"peer_commits"`
	PeerAborts         uint64 `json:"peer_aborts"`
	TTLAborts          uint64 `json:"ttl_aborts"`
	StatusQueries      uint64 `json:"status_queries"`
	ResolveForwards    uint64 `json:"resolve_forwards"`
}

// exportedOverload is the stable JSON schema for the overload-protection
// counters: the nodes' admission-gate outcomes summed across the cluster
// plus the clients' backpressure and hedging reactions.
type exportedOverload struct {
	Admitted         uint64 `json:"admitted"`
	Shed             uint64 `json:"shed"`
	ExpiredOnArrival uint64 `json:"expired_on_arrival"`
	OverloadBackoffs uint64 `json:"overload_backoffs"`
	BudgetExhausted  uint64 `json:"budget_exhausted"`
	HedgesFired      uint64 `json:"hedges_fired"`
	HedgeWins        uint64 `json:"hedge_wins"`
}

// exportedResult is the stable JSON schema for one experiment.
type exportedResult struct {
	Workload         string           `json:"workload"`
	Servers          int              `json:"servers"`
	Shards           int              `json:"shards,omitempty"`
	Clients          int              `json:"clients"`
	ThreadsPerClient int              `json:"threads_per_client"`
	IntervalMS       int64            `json:"interval_ms"`
	Phases           []int            `json:"phase_schedule,omitempty"`
	Seed             int64            `json:"seed"`
	Series           []exportedSeries `json:"series"`
}

// ExportJSON renders the result in a stable schema for external plotting
// and archival (the figures_output.txt companion in machine-readable form).
func (r *Result) ExportJSON() ([]byte, error) {
	out := exportedResult{
		Servers:          r.Options.Servers,
		Shards:           r.Options.Shards,
		Clients:          r.Options.Clients,
		ThreadsPerClient: r.Options.ThreadsPerClient,
		IntervalMS:       r.Options.IntervalLength.Milliseconds(),
		Phases:           r.Options.PhaseSchedule,
		Seed:             r.Options.Seed,
	}
	if r.Options.Workload != nil {
		out.Workload = r.Options.Workload.Name()
	}
	for _, m := range AllModesWithCheckpoint {
		s := r.Series[m]
		if s == nil {
			continue
		}
		es := exportedSeries{
			System:         m.String(),
			Throughput:     s.Throughput,
			Commits:        s.Commits,
			MeanLatencyUS:  s.MeanLatency.Microseconds(),
			P99LatencyUS:   s.P99Latency.Microseconds(),
			FullAborts:     s.Metrics.ParentAborts,
			PartialAborts:  s.Metrics.SubAborts,
			BusyBackoffs:   s.Metrics.BusyBackoffs,
			RemoteReads:    s.Metrics.RemoteReads,
			ReadOnlyFastOK: s.Metrics.ReadOnlyFasts,
			DroppedCommits: s.DroppedCommits,
			ReadStage:      exportSummary(s.Stages.Read),
			PrefetchStage:  exportSummary(s.Stages.PrefetchBatch),
			PrepareStage:   exportSummary(s.Stages.Prepare),
			CommitStage:    exportSummary(s.Stages.Commit),
			FsyncWait:      exportSummary(s.FsyncWait),
		}
		if s.WAL.Appends > 0 {
			es.WAL = &exportedWAL{
				Appends:         s.WAL.Appends,
				Records:         s.WAL.Records,
				Fsyncs:          s.WAL.Fsyncs,
				MaxBatch:        s.WAL.MaxBatch,
				Snapshots:       s.WAL.Snapshots,
				SegmentsRemoved: s.WAL.SegmentsRemoved,
				FsyncsPerCommit: float64(s.WAL.Fsyncs) / float64(s.WAL.Appends),
			}
		}
		r := s.Resolution
		if r.InDoubt+r.RecoveredInDoubt+r.CoordinatorDecided+r.PeerCommits+r.PeerAborts+r.TTLAborts+r.StatusQueries > 0 {
			es.Resolution = &exportedResolution{
				InDoubt:            r.InDoubt,
				RecoveredInDoubt:   r.RecoveredInDoubt,
				CoordinatorDecided: r.CoordinatorDecided,
				PeerCommits:        r.PeerCommits,
				PeerAborts:         r.PeerAborts,
				TTLAborts:          r.TTLAborts,
				StatusQueries:      r.StatusQueries,
				ResolveForwards:    r.ResolveForwards,
			}
		}
		a, mm := s.Admission, s.Metrics
		if a.Admitted+a.Shed+a.Expired+mm.OverloadBackoffs+mm.BudgetExhausted+mm.HedgesFired > 0 {
			es.Overload = &exportedOverload{
				Admitted:         a.Admitted,
				Shed:             a.Shed,
				ExpiredOnArrival: a.Expired,
				OverloadBackoffs: mm.OverloadBackoffs,
				BudgetExhausted:  mm.BudgetExhausted,
				HedgesFired:      mm.HedgesFired,
				HedgeWins:        mm.HedgeWins,
			}
		}
		if s.Shards != nil {
			sh := &exportedSharding{
				SingleShardCommits: s.Metrics.SingleShardCommits,
				CrossShardCommits:  s.Metrics.CrossShardCommits,
				CrossShardAborts:   s.Metrics.CrossShardAborts,
				CrossShardRatio:    s.CrossShardRatio,
			}
			for i, c := range s.Shards {
				sh.PerShard = append(sh.PerShard, exportedShard{
					Shard:         i,
					Commits:       c.Commits,
					FullAborts:    c.ParentAborts,
					PartialAborts: c.SubAborts,
				})
			}
			es.Sharding = sh
		}
		es.Forensics = exportForensics(s)
		out.Series = append(out.Series, es)
	}
	return json.MarshalIndent(out, "", "  ")
}

// ParseExportedThroughput reads back the throughput series per system from
// an ExportJSON blob (round-trip helper for tooling and tests).
func ParseExportedThroughput(data []byte) (map[string][]float64, error) {
	var in exportedResult
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(in.Series))
	for _, s := range in.Series {
		out[s.System] = s.Throughput
	}
	return out, nil
}
