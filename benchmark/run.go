package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
)

// setupRepeats is how many times an end-to-end run builds its system to time
// setup_s; the median is reported and the last build takes the load. Set-up
// lasts 3–5 ms on a volatile workload and 15–140 ms on the durable one (ten
// WAL opens and checkpoint fsyncs), skewed right by the scheduler and the
// disk, so a single timing says little. setupBudget stops the repeats early
// (never before minSetups) when the disk is slow, so that set-up timing
// cannot eat into the driver's wall-time cap.
const (
	setupRepeats = 31
	minSetups    = 11
	setupBudget  = 1200 * time.Millisecond
)

// drainTimeout bounds the wait for in-flight transactions after the last
// interval; past it they are cancelled and counted as slack for the
// invariant checks.
const drainTimeout = 20 * time.Second

// passConfig shapes one closed-loop pass over a workload.
type passConfig struct {
	seed     int64
	interval time.Duration
	warmup   int  // leading intervals excluded from every metric
	measured int  // measured intervals
	flat     bool // QR-DTM instead of QR-ACN
	traced   bool // wrappers on, spans recorded
	setups   int  // how many times to build the system (at least once)
	cpu      int  // the CPU the process is pinned to, -1 if it is not
	tmpDir   string
}

// sample is one Execute call as a worker saw it.
type sample struct {
	start, end int64 // ns since the pass began
	profile    int
	ok         bool
}

// usage is the process cost counters sampled at the window edges.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	stolen  time.Duration // withheld from the pinned CPU by the hypervisor
	mallocs uint64
	gcPause time.Duration
}

func readUsage(pinned int) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		stolen:  stolenTime(pinned),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// passResult is everything one pass measured.
type passResult struct {
	setupS  []float64     // each set-up's wall time, seconds
	window  time.Duration // measured window length
	winFrom int64         // measured window start, ns since pass began
	winTo   int64

	// Whole-pass call counts (warm-up and drain included).
	attempted, failed, cancelled, acked uint64
	// Measured-window samples: committed Execute calls that returned inside
	// the window, sorted latencies in ms, overall and per profile.
	commits        int
	latencyMS      []float64
	byProfile      map[int][]float64
	perIntervalTPS []float64 // commits of each measured interval ÷ its length

	// Measured-window deltas.
	counters dtm.Snapshot
	wal      dtm.WALStats
	cost     struct {
		cpu     time.Duration
		stolen  time.Duration
		mallocs uint64
		gcPause time.Duration
		wall    time.Duration
	}
	// Whole-pass reads of cumulative instruments.
	stages        dtm.StageLatencies
	fsyncWait     metrics.Summary
	walMaxBatch   uint64
	walBytes      int64 // log directory size at the end of the pass
	recoveryMS    float64
	peakRSSMB     float64  // process high-water RSS when the load stopped
	recomposes    int      // composition swaps during the measured window
	blocksPerTx   float64  // blocks per executed transaction at the end
	finalComps    []string // each client's Block sequences when the load stopped
	profileNames  []string
	groupsOfNodes func(quorum.NodeID) int // shard home of a node (0 unsharded)

	spans []span // traced passes only
}

// stealWeight is how much of the measured window a stolen share f is taken
// to have cost: stealWeight × f. 1 would be the pure model, in which the
// pinned process stands still while its CPU is stolen and runs at full speed
// otherwise. Runs inside steal episodes lose more than that (each preemption
// by the host also delays the interrupt that ends it and leaves cold caches,
// neither of which the steal clock sees), and over two ten-seed rounds the
// run-to-run spread of the end-to-end metrics was smallest at 1.5–1.7
// (README.md, "Stolen time"). The steal share is the host's and not the
// program's, so the weight narrows the spread without favouring any version
// of the program.
const stealWeight = 1.5

// stolenShare is the share of the measured window during which the
// hypervisor withheld the pinned CPU.
func (r *passResult) stolenShare() float64 {
	return ratio(r.cost.stolen.Seconds(), r.cost.wall.Seconds())
}

// discount is the share of the measured window the process is taken to have
// had to itself: throughput is divided by it and latencies are multiplied by
// it. The floor keeps a run that was mostly stolen from dividing by nothing.
func (r *passResult) discount() float64 {
	return max(0.25, 1-stealWeight*r.stolenShare())
}

// tps is commits per second of the window the process had to itself.
func (r *passResult) tps() float64 { return float64(r.commits) / (r.window.Seconds() * r.discount()) }

// runPass sets the system up, drives the closed loop, drains it, verifies
// the final state and tears everything down.
func runPass(ctx context.Context, spec *workloadSpec, cfg passConfig) (*passResult, error) {
	res := &passResult{byProfile: map[int][]float64{}}

	// Set-up, several times over; only the last system is kept.
	var sys *system
	var col *collector
	if cfg.traced {
		col = newCollector()
	}
	setupStart := time.Now()
	for i := 0; i < max(cfg.setups, 1); i++ {
		if i >= minSetups && time.Since(setupStart) > setupBudget {
			break
		}
		if sys != nil {
			sys.close()
		}
		runtime.GC() // every timed set-up starts from a collected heap
		t0 := time.Now()
		var err error
		sys, err = setup(spec, setupOptions{seed: cfg.seed, interval: cfg.interval, flat: cfg.flat, col: col, tmpDir: cfg.tmpDir})
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", spec.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer sys.close()
	for _, p := range sys.wl.Profiles() {
		res.profileNames = append(res.profileNames, p.Name)
	}
	res.groupsOfNodes = func(quorum.NodeID) int { return 0 }
	if m := sys.cluster.Shards; m != nil {
		res.groupsOfNodes = m.HomeOf
	}

	// Closed loop: each worker issues its next transaction only when the
	// previous one returned.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		phase   atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		base    = time.Now()
		samples = make([][]sample, inFlight)
	)
	if col != nil {
		col.base = base
	}
	for ci, cl := range sys.clients {
		for th := 0; th < threadsPerClient; th++ {
			wg.Add(1)
			go func(cl *client, out *[]sample, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					prof, params := sys.wl.Generate(rng, int(phase.Load()))
					var err error
					start := int64(time.Since(base))
					if col != nil {
						txCtx, end := col.begin(runCtx, "tx", prof)
						err = cl.execs[prof].Execute(txCtx, params)
						end(err)
					} else {
						err = cl.execs[prof].Execute(runCtx, params)
					}
					*out = append(*out, sample{start: start, end: int64(time.Since(base)), profile: prof, ok: err == nil})
					if err != nil {
						if runCtx.Err() != nil {
							return
						}
						time.Sleep(time.Millisecond) // a failing cluster must not spin the loop
					}
				}
			}(cl, &samples[ci*threadsPerClient+th], cfg.seed*1000+int64(ci*64+th))
		}
	}

	// Interval driver: at every boundary flip the phase if the workload
	// shifts and run each client's algorithm module once (QR-ACN), the
	// paper's cadence. Deadlines are absolute so boundaries do not drift.
	total := cfg.warmup + cfg.measured
	swaps := make([]int, len(res.profileNames)) // composition changes per profile, measured window
	var from, to usage
	var walFrom, walTo dtm.WALStats
	var ctrFrom, ctrTo dtm.Snapshot
	snapshot := func() (usage, dtm.WALStats, dtm.Snapshot) {
		var s dtm.Snapshot
		for _, cl := range sys.clients {
			s.Add(cl.rt.Metrics().Snapshot())
		}
		return readUsage(cfg.cpu), sys.cluster.WALStats(), s
	}
	if cfg.warmup == 0 {
		from, walFrom, ctrFrom = snapshot()
	}
	for k := 1; k <= total; k++ {
		select {
		case <-time.After(time.Until(base.Add(time.Duration(k) * cfg.interval))):
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return nil, ctx.Err()
		}
		if k == cfg.warmup {
			from, walFrom, ctrFrom = snapshot()
		}
		if k == total {
			to, walTo, ctrTo = snapshot()
			break
		}
		phase.Store(int64(spec.phaseFor(k-cfg.warmup, cfg.measured)))
		for _, cl := range sys.clients {
			if cl.hub == nil {
				continue
			}
			before := compositions(cl)
			refreshCtx, end := runCtx, func(error) {}
			if col != nil {
				refreshCtx, end = col.begin(runCtx, "refresh", -1)
			}
			end(cl.hub.RefreshOnce(refreshCtx)) // a transient error retries at the next boundary
			if k >= cfg.warmup {
				for prof, after := range compositions(cl) {
					if after != before[prof] {
						swaps[prof]++
					}
				}
			}

		}
	}
	res.window = time.Duration(cfg.measured) * cfg.interval
	res.winFrom = int64(time.Duration(cfg.warmup) * cfg.interval)
	res.winTo = int64(time.Duration(total) * cfg.interval)

	// Drain: let every in-flight transaction finish, so acknowledged and
	// applied commits agree exactly and no protection is left behind.
	stop.Store(true)
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancel()
		<-drained
	}

	perInterval := make([]int, cfg.measured)
	for _, ws := range samples {
		for _, s := range ws {
			res.attempted++
			switch {
			case s.ok:
				res.acked++
			case runCtx.Err() != nil && s.end >= res.winTo:
				res.cancelled++ // shutdown cancellation, not a failure
			default:
				res.failed++
			}
			if s.ok && s.end >= res.winFrom && s.end < res.winTo {
				ms := float64(s.end-s.start) / 1e6
				res.latencyMS = append(res.latencyMS, ms)
				res.byProfile[s.profile] = append(res.byProfile[s.profile], ms)
				perInterval[int((s.end-res.winFrom)/int64(cfg.interval))]++
			}
		}
	}
	res.commits = len(res.latencyMS)
	for _, n := range perInterval {
		res.perIntervalTPS = append(res.perIntervalTPS, float64(n)/cfg.interval.Seconds())
	}
	sort.Float64s(res.latencyMS)
	for _, l := range res.byProfile {
		sort.Float64s(l)
	}

	res.counters = diffCounters(ctrTo, ctrFrom)
	res.wal = dtm.WALStats{Appends: walTo.Appends - walFrom.Appends, Records: walTo.Records - walFrom.Records, Fsyncs: walTo.Fsyncs - walFrom.Fsyncs}
	res.walMaxBatch = walTo.MaxBatch
	res.cost.cpu = to.cpu - from.cpu
	res.cost.stolen = to.stolen - from.stolen
	res.cost.mallocs = to.mallocs - from.mallocs
	res.cost.gcPause = to.gcPause - from.gcPause
	res.cost.wall = to.at.Sub(from.at)
	for _, cl := range sys.clients {
		st := cl.rt.Stages()
		res.stages.Read.Merge(&st.Read)
		res.stages.PrefetchBatch.Merge(&st.PrefetchBatch)
		res.stages.Prepare.Merge(&st.Prepare)
		res.stages.Commit.Merge(&st.Commit)
	}
	res.fsyncWait = sys.cluster.FsyncWait().Summarize()
	res.peakRSSMB = peakRSSMB()
	res.blocksPerTx = blocksPerTx(sys, res.byProfile)
	for prof := range res.byProfile {
		// Executors of profiles outside the workload's mix recompose too (on
		// no observations); only the ones that ran count.
		res.recomposes += swaps[prof]
		for _, cl := range sys.clients {
			res.finalComps = append(res.finalComps, cl.execs[prof].Composition().String())
		}
	}
	if sys.walDir != "" {
		res.walBytes = dirSize(sys.walDir)
	}
	if col != nil {
		res.spans = col.spans
	}

	// Correctness: the state clients can read must account for every
	// acknowledged commit; on a durable workload it must still do so after
	// every node lost its unsynced log tail and replayed from disk.
	if err := verify(ctx, spec, sys.auditRuntime(), res.acked, res.cancelled); err != nil {
		return res, fmt.Errorf("%s: invariant violated: %w", spec.name, err)
	}
	if spec.durable {
		t0 := time.Now()
		for _, n := range sys.cluster.Nodes {
			if err := sys.cluster.CrashRestart(n.ID()); err != nil {
				return res, fmt.Errorf("%s: crash-restart node %d: %w", spec.name, n.ID(), err)
			}
		}
		res.recoveryMS = float64(time.Since(t0)) / 1e6
		if err := verify(ctx, spec, sys.auditRuntime(), res.acked, res.cancelled); err != nil {
			return res, fmt.Errorf("%s: invariant violated after crash-restart of every node: %w", spec.name, err)
		}
	}
	return res, nil
}

// compositions renders each executor's current Block sequence.
func compositions(cl *client) []string {
	out := make([]string, len(cl.execs))
	for i, e := range cl.execs {
		out[i] = e.Composition().String()
	}
	return out
}

// blocksPerTx is the mean number of closed-nested Blocks a transaction ran
// as at the end of the pass: each profile's Block count (averaged over the
// clients) weighted by the profile's share of the measured commits.
func blocksPerTx(sys *system, byProfile map[int][]float64) float64 {
	var sum, weight float64
	for prof, lat := range byProfile {
		var blocks float64
		for _, cl := range sys.clients {
			blocks += float64(cl.execs[prof].Composition().NumBlocks())
		}
		sum += blocks / float64(len(sys.clients)) * float64(len(lat))
		weight += float64(len(lat))
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// diffCounters subtracts two counter snapshots field by field (all fields
// are uint64, which dtm's own Snapshot.Add relies on too).
func diffCounters(to, from dtm.Snapshot) dtm.Snapshot {
	var out dtm.Snapshot
	ov, tv, fv := reflect.ValueOf(&out).Elem(), reflect.ValueOf(to), reflect.ValueOf(from)
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetUint(tv.Field(i).Uint() - fv.Field(i).Uint())
	}
	return out
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a segment compacted away mid-walk is not an error
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
