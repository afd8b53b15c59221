// Package harness runs the paper's experiments: it deploys an in-process
// cluster, drives a workload from many client threads, measures committed
// transactions per second in fixed intervals, and compares the three
// systems of the evaluation — QR-DTM (flat nesting), QR-CN (manual closed
// nesting), and QR-ACN (this paper) — under identical workload schedules,
// including the mid-run contention shifts of the Vacation and Bank
// experiments.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/workload"
)

// Mode selects the system under test.
type Mode int

// The three systems the paper compares.
const (
	// ModeQRDTM is flat nesting: the whole transaction restarts on any
	// conflict.
	ModeQRDTM Mode = iota
	// ModeQRCN is manual closed nesting: the programmer's fixed
	// sub-transaction decomposition.
	ModeQRCN
	// ModeQRACN is the paper's system: automatic, contention-adaptive
	// decomposition.
	ModeQRACN
	// ModeQRCP is checkpoint-based partial rollback, the alternative
	// mechanism the paper contrasts closed nesting with (§I, §III): a
	// savepoint before every UnitBlock, which copies no state, and a conflict
	// rewinds to the one before the conflicting object's first read. It is
	// the Static composition, never recomposed.
	ModeQRCP
)

// systems is the one table of the compared systems: each Mode's short name
// on the command line and its label in reports.
var systems = [...]struct{ name, label string }{
	ModeQRDTM: {"dtm", "QR-DTM"},
	ModeQRCN:  {"cn", "QR-CN"},
	ModeQRACN: {"acn", "QR-ACN"},
	ModeQRCP:  {"cp", "QR-CP"},
}

func (m Mode) String() string {
	if m < 0 || int(m) >= len(systems) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return systems[m].label
}

// ParseMode maps a system's short name (dtm, cn, acn, cp) to its Mode.
func ParseMode(name string) (Mode, error) {
	for m, s := range systems {
		if s.name == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (use dtm, cn, acn, cp)", name)
}

// Composition is the decomposition prof's executors start with under m:
// QR-DTM runs flat, QR-CN the programmer's Manual groups (flat when there are
// none), and QR-ACN and QR-CP Static, one Block per UnitBlock.
func (m Mode) Composition(an *unitgraph.Analysis, prof workload.Profile) (*acn.Composition, error) {
	switch {
	case m == ModeQRACN || m == ModeQRCP:
		return acn.Static(an), nil
	case m == ModeQRCN && prof.Manual != nil:
		return acn.Manual(an, prof.Manual)
	}
	return acn.Flat(an), nil
}

// AllModes lists the paper's three systems in presentation order.
var AllModes = []Mode{ModeQRDTM, ModeQRCN, ModeQRACN}

// AllModesWithCheckpoint adds the QR-CP comparison system.
var AllModesWithCheckpoint = []Mode{ModeQRDTM, ModeQRCN, ModeQRACN, ModeQRCP}

// Options configures one experiment.
type Options struct {
	// Workload under test.
	Workload workload.Workload
	// Servers is the number of quorum nodes (default 10, as in the paper).
	Servers int
	// Shards, when > 1, partitions the servers into that many independent
	// quorum groups; clients route per object and cross-shard transactions
	// run 2PC across every touched group. 0 or 1 keeps one cluster-wide
	// quorum tree.
	Shards int
	// Clients is the number of client nodes (default 8) and
	// ThreadsPerClient the concurrent transactions per client (default 2).
	Clients          int
	ThreadsPerClient int
	// Intervals and IntervalLength shape the measurement: the paper uses
	// six-plus 10-second intervals; scaled-down runs use hundreds of
	// milliseconds (defaults 6 × 400 ms).
	Intervals      int
	IntervalLength time.Duration
	// PhaseSchedule assigns a workload phase to each interval (nil: all
	// phase 0). Shorter schedules repeat their last entry.
	PhaseSchedule []int
	// NetLatency/NetJitter simulate the interconnect (defaults 60µs/30µs
	// per one-way message, a LAN-scale round trip once doubled). Negative
	// disables the simulation outright — stage latencies then measure pure
	// protocol and marshaling cost.
	NetLatency time.Duration
	NetJitter  time.Duration
	// Seed fixes all randomness (workload draws, jitter, backoff).
	Seed int64
	// Algo tunes the ACN algorithm module.
	Algo acn.AlgoConfig
	// Faults schedules node failures and recoveries at interval
	// boundaries, exercising the quorum protocol's fault tolerance while
	// the workload runs.
	Faults []FaultEvent
	// ProtectTTL enables lease expiry of commit protections, letting the
	// cluster self-heal from clients caught mid-commit by a fault (0: off).
	ProtectTTL time.Duration
	// DisablePrefetch turns off the executors' batched first-access read
	// prefetch (one quorum round per Block's statically-known access set),
	// for A/B comparisons of the RPC pipeline.
	DisablePrefetch bool
	// Durable gives every node a commit log: the full write-ahead path
	// (append + group-commit fsync before the decision ack) runs during the
	// experiment, measuring the durability cost. Each mode's run gets a
	// fresh directory, removed afterwards.
	Durable bool
	// WALDir is the base directory for the per-run logs ("" uses the
	// system temp directory). Only read when Durable is set.
	WALDir string
	// FsyncInterval is the linger bound of unforced log records (0: wal
	// default).
	FsyncInterval time.Duration
	// TraceCapacity, when positive, turns tracing on: every node and every
	// client runtime gets a span ring of this size (0: tracing off).
	TraceCapacity int
	// Node is the template every quorum node is built from (admission
	// control, termination deadlines, checkpoint threshold, forensics); it
	// is handed to the cluster as cluster.Config.Node, which fills WAL,
	// Shards, Tracer, Now and StatsWindow (= IntervalLength). A positive
	// Node.ResolveAfter also starts every node's cooperative termination
	// loop, so votes stranded by a fault-schedule kill resolve among the
	// participants during the run. Clients inherit Node.ForensicsRing and
	// Node.NoForensics.
	Node server.Config
	// Client is the template every client runtime is built from (read
	// repair, span sampling, decide budget, transaction deadline, retry
	// budget, hedging). The cluster fills the deployment identity; the
	// harness fills Seed (per client), Tracer (from TraceCapacity) and the
	// backoff (50µs–1ms, fixed so figures stay comparable).
	Client dtm.Config
}

// FaultEvent takes a node down (or brings it back) at the start of the
// given interval (0 = before the run begins).
type FaultEvent struct {
	Interval int
	Node     int
	Down     bool
}

func (o *Options) fillDefaults() {
	if o.Servers == 0 {
		o.Servers = 10
	}
	if o.Clients == 0 {
		o.Clients = 8
	}
	if o.ThreadsPerClient == 0 {
		o.ThreadsPerClient = 2
	}
	if o.Intervals == 0 {
		o.Intervals = 6
	}
	if o.IntervalLength == 0 {
		o.IntervalLength = 400 * time.Millisecond
	}
	if o.NetLatency == 0 {
		o.NetLatency = 60 * time.Microsecond
	}
	if o.NetJitter == 0 {
		o.NetJitter = 30 * time.Microsecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o *Options) phaseFor(interval int) int {
	if len(o.PhaseSchedule) == 0 {
		return 0
	}
	if interval >= len(o.PhaseSchedule) {
		return o.PhaseSchedule[len(o.PhaseSchedule)-1]
	}
	return o.PhaseSchedule[interval]
}

// forensicsTopK bounds the hot-key ranking each recorder contributes to a
// Series' merged forensic snapshot.
const forensicsTopK = 16

// Series is one system's measured curve.
type Series struct {
	Mode Mode
	// Throughput is committed transactions per second, one entry per
	// interval.
	Throughput []float64
	// Commits is the total committed transactions.
	Commits uint64
	// MeanLatency and P99Latency summarize end-to-end transaction latency
	// (including all retries) across the run.
	MeanLatency time.Duration
	P99Latency  time.Duration
	// Runtime counters aggregated over all clients.
	Metrics dtm.Snapshot
	// WAL aggregates the nodes' commit-log counters (zero unless the run
	// was durable).
	WAL dtm.WALStats
	// Resolution aggregates the nodes' termination-protocol counters
	// (in-doubt votes and how each was decided; all zero on a run where no
	// coordinator died in-doubt).
	Resolution server.ResolutionStats
	// Admission aggregates the nodes' overload-protection counters
	// (admitted/shed/expired-on-arrival; all zero unless MaxInflight or
	// TxDeadline was set).
	Admission server.AdmissionStats
	// Stages summarizes the always-on client stage histograms (quorum read,
	// prefetch batch, 2PC prepare, whole commit) merged across all clients.
	Stages StageSummaries
	// FsyncWait summarizes the group-commit wait on the servers (durable
	// runs only; zero count otherwise).
	FsyncWait metrics.Summary
	// DroppedCommits counts commits that landed outside the measurement
	// intervals (after Close or past the configured window) and therefore
	// are absent from Throughput.
	DroppedCommits uint64
	// Forensics merges the abort-attribution rings of every client runtime
	// and every node: structured abort events, controller decisions, and the
	// hot-key conflict ranking (empty when the run set NoForensics).
	Forensics forensics.Snapshot
	// Shards is the per-shard outcome breakdown on sharded runs (nil
	// otherwise), aggregated over all clients. A cross-shard transaction
	// counts in every shard it touched.
	Shards []dtm.ShardCounts
	// CrossShardRatio is CrossShardCommits / Commits on sharded runs.
	CrossShardRatio float64
}

// StageSummaries are the percentile summaries of the client-side stage
// latency histograms for one run.
type StageSummaries struct {
	Read          metrics.Summary
	PrefetchBatch metrics.Summary
	Prepare       metrics.Summary
	Commit        metrics.Summary
}

// Result is one experiment's outcome across systems.
type Result struct {
	Options Options
	Series  map[Mode]*Series
}

// Run executes the experiment for each requested mode under identical
// workload schedules and returns the measured series.
func Run(ctx context.Context, opts Options, modes []Mode) (*Result, error) {
	opts.fillDefaults()
	if opts.Workload == nil {
		return nil, fmt.Errorf("harness: Options.Workload is required")
	}
	res := &Result{Options: opts, Series: make(map[Mode]*Series)}
	for _, mode := range modes {
		s, err := runMode(ctx, opts, mode)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", mode, err)
		}
		res.Series[mode] = s
	}
	return res, nil
}

// clientState is one client node's executors and its ACN hub (shared
// contention table + single stats query per refresh, as in the paper).
type clientState struct {
	rt    *dtm.Runtime
	execs []*acn.Executor
	hub   *acn.Hub
}

func runMode(ctx context.Context, opts Options, mode Mode) (*Series, error) {
	w := opts.Workload
	profiles := w.Profiles()

	analyses := make([]*unitgraph.Analysis, len(profiles))
	for i, prof := range profiles {
		an, err := unitgraph.Analyze(prof.Program)
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", prof.Name, err)
		}
		analyses[i] = an
	}

	ccfg := cluster.Config{
		Servers: opts.Servers,
		Shards:  opts.Shards,
		Network: transport.ChannelConfig{
			Latency: max(opts.NetLatency, 0),
			Jitter:  max(opts.NetJitter, 0),
			Seed:    opts.Seed,
		},
		StatsWindow:   opts.IntervalLength,
		ProtectTTL:    opts.ProtectTTL,
		FsyncInterval: opts.FsyncInterval,
		TraceCapacity: opts.TraceCapacity,
		Node:          opts.Node,
	}
	if opts.Durable {
		// A fresh directory per run: replaying a previous run's log would
		// seed the replicas with stale versions and skew the measurement.
		dir, err := os.MkdirTemp(opts.WALDir, "qracn-wal-"+mode.String()+"-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		defer os.RemoveAll(dir)
		ccfg.WALDir = dir
	}
	c, err := cluster.NewDurable(ccfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Seed(w.SeedObjects())
	if opts.Node.ResolveAfter > 0 {
		// Poll at the in-doubt deadline itself: harness runs are scaled to
		// milliseconds, so the resolver default (seconds) would never fire
		// inside the measurement window.
		c.StartResolvers(opts.Node.ResolveAfter)
	}

	applyFaults := func(interval int) {
		for _, f := range opts.Faults {
			if f.Interval != interval {
				continue
			}
			if f.Down {
				c.Kill(quorum.NodeID(f.Node))
			} else {
				c.Revive(quorum.NodeID(f.Node))
			}
		}
	}
	applyFaults(0)

	meter := metrics.NewThroughputMeter(opts.Intervals)
	var latency metrics.Histogram
	var phase atomic.Int64
	phase.Store(int64(opts.phaseFor(0)))

	clients := make([]*clientState, opts.Clients)
	for ci := range clients {
		cs := &clientState{}
		dcfg := opts.Client
		dcfg.Seed = opts.Seed + int64(ci) + 1
		dcfg.BackoffBase = 50 * time.Microsecond
		dcfg.BackoffMax = time.Millisecond
		if opts.TraceCapacity > 0 {
			dcfg.Tracer = trace.New(opts.TraceCapacity)
		}
		cs.rt = c.Runtime(ci+1, dcfg)
		if mode == ModeQRACN {
			cs.hub = acn.NewHub(cs.rt, acn.HubConfig{})
		}

		for pi, prof := range profiles {
			comp, err := mode.Composition(analyses[pi], prof)
			if err != nil {
				return nil, fmt.Errorf("%s composition for %s: %w", mode, prof.Name, err)
			}
			exec := acn.NewExecutor(cs.rt, analyses[pi], comp)
			exec.SetPrefetch(!opts.DisablePrefetch)
			cs.execs = append(cs.execs, exec)
			if mode == ModeQRACN {
				cs.hub.Register(exec, opts.Algo)
			}
		}
		clients[ci] = cs
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for ci, cs := range clients {
		for th := 0; th < opts.ThreadsPerClient; th++ {
			wg.Add(1)
			go func(cs *clientState, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for runCtx.Err() == nil {
					prof, params := w.Generate(rng, int(phase.Load()))
					start := time.Now()
					if err := cs.execs[prof].Execute(runCtx, params); err != nil {
						if runCtx.Err() != nil {
							return
						}
						// Transient cluster fault (e.g. a scheduled node
						// kill): pause briefly and keep driving load.
						time.Sleep(opts.IntervalLength / 20)
						continue
					}
					latency.Record(time.Since(start))
					meter.Record()
				}
			}(cs, opts.Seed*1000+int64(ci*64+th))
		}
	}

	// Interval driver: advance phases, close intervals, and — in ACN mode —
	// trigger the periodic algorithm-module run at each boundary, which is
	// the paper's cadence (every 10 seconds, aligned with measurement).
	timer := time.NewTimer(opts.IntervalLength)
	defer timer.Stop()
	for i := 0; i < opts.Intervals; i++ {
		select {
		case <-timer.C:
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return nil, ctx.Err()
		}
		if i < opts.Intervals-1 {
			applyFaults(i + 1)
			phase.Store(int64(opts.phaseFor(i + 1)))
			if mode == ModeQRACN {
				for _, cs := range clients {
					_ = cs.hub.RefreshOnce(runCtx) // transient errors: retry next boundary
				}
			}
			meter.Advance()
			timer.Reset(opts.IntervalLength)
		}
	}
	meter.Close()
	cancel()
	wg.Wait()

	s := &Series{
		Mode:           mode,
		Throughput:     meter.PerSecond(opts.IntervalLength),
		Commits:        meter.Total(),
		MeanLatency:    latency.Mean(),
		P99Latency:     latency.Quantile(0.99),
		WAL:            c.WALStats(),
		Resolution:     c.Resolution(),
		Admission:      c.Admission(),
		FsyncWait:      c.FsyncWait().Summarize(),
		DroppedCommits: meter.Dropped(),
	}
	var stages dtm.StageLatencies
	for _, cs := range clients {
		// Snapshot.Add walks the struct by reflection, so new counters are
		// aggregated without touching this loop.
		s.Metrics.Add(cs.rt.Metrics().Snapshot())
		if per := cs.rt.ShardSnapshot(); per != nil {
			if s.Shards == nil {
				s.Shards = make([]dtm.ShardCounts, len(per))
			}
			for i := range per {
				s.Shards[i].Add(per[i])
			}
		}
		st := cs.rt.Stages()
		stages.Read.Merge(&st.Read)
		stages.PrefetchBatch.Merge(&st.PrefetchBatch)
		stages.Prepare.Merge(&st.Prepare)
		stages.Commit.Merge(&st.Commit)
		s.Forensics.Merge(cs.rt.Forensics().Snapshot(forensicsTopK))
	}
	// The nodes' recorders hold the server-side view: busy refusals noted
	// against keys the clients retried through without ever aborting.
	if fs := c.Forensics(forensicsTopK); fs != nil {
		s.Forensics.Merge(*fs)
	}
	if s.Shards != nil && s.Metrics.Commits > 0 {
		s.CrossShardRatio = float64(s.Metrics.CrossShardCommits) / float64(s.Metrics.Commits)
	}
	s.Stages = StageSummaries{
		Read:          stages.Read.Summarize(),
		PrefetchBatch: stages.PrefetchBatch.Summarize(),
		Prepare:       stages.Prepare.Summarize(),
		Commit:        stages.Commit.Summarize(),
	}
	return s, nil
}
