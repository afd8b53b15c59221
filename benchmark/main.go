// Command benchmark is the repository's one fixed benchmark: four
// closed-loop workloads, the end-to-end and per-layer metrics named in
// BENCHMARK.json, a correctness check after every pass, a traced pass and
// layer microbenchmarks. README.md in this directory defines every name.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
//	benchmark [-sets N] [-out FILE]                           N sets of all workloads
//	benchmark -compare A.json B.json                          verdict per (workload, metric)
//	benchmark -smoke                                          one-second runs of everything
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// options are the command's flags.
type options struct {
	workload string  // one workload by name; empty runs sets of all four
	seed     int64   // fixes workload draws, network jitter and backoff
	seconds  float64 // how long one run measures; 0 takes BENCHMARK.json's run_seconds
	trace    int     // with workload: 0 end-to-end metrics, 1 per-layer metrics
	sets     int     // without workload: how many sets, set i on seed+i
	out      string  // without workload: where the sets are written
	compare  bool    // compare the two set files in args
	smoke    bool    // a second per workload, nothing written
	args     []string
}

func main() {
	testing.Init() // registers -test.benchtime, which the microbenchmarks set
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result line (empty: run sets of all four)")
	flag.Int64Var(&o.seed, "seed", 1, "fixes workload draws, network jitter and backoff")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.sets, "sets", 1, "without -workload: how many sets to run, set i on seed+i")
	flag.StringVar(&o.out, "out", "", "without -workload: where to write the sets (default benchmark/out/sets.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two set files given as arguments; exit 1 if any row is worse")
	flag.BoolVar(&o.smoke, "smoke", false, "one set at a second per workload: checks that everything runs and every name is emitted")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return errors.New("-compare needs two set files")
		}
		return compareFiles(os.Stdout, spec, o.args[0], o.args[1])
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.smoke {
		o.sets = 1
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	// Everything the benchmark writes (WAL directories, traces, set files)
	// goes under benchmark/out, inside the checkout.
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{spec: spec, outDir: outDir, seconds: o.seconds, setups: setupRepeats, microTime: microBenchTime, cpu: -1}
	if o.smoke {
		b = smokeBench(spec, outDir)
	}

	if o.workload != "" || o.smoke {
		// Only a process that takes load pins itself: the runs of a set are
		// child processes, and one born pinned would size GOMAXPROCS to 1.
		if b.cpu, err = pinToOneCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: not pinned to one CPU, expect two timing regimes:", err)
		}
	}
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		r, err := b.runMode(ctx, w, o.seed, o.trace)
		if r != nil {
			r.print(os.Stdout)
			line, jerr := json.Marshal(r.resultLine())
			if jerr != nil {
				return fmt.Errorf("result line: %w", jerr)
			}
			fmt.Println(string(line))
		}
		return err
	}

	file := setFile{Host: hostFacts(outDir), Seconds: b.seconds}
	for i := 0; i < o.sets; i++ {
		set := benchSet{Seed: o.seed + int64(i), Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			var lines [2]*resultLine // end to end, per layer
			for trace := range lines {
				if lines[trace], err = b.runOne(ctx, w, set.Seed, trace, o.smoke); err != nil {
					return err
				}
			}
			set.Workloads[w.name] = &workloadResult{
				EndToEnd:       lines[0].values(),
				FailedOpsRatio: ratio(float64(lines[0].Failed), float64(lines[0].Attempted)),
				PerLayer:       lines[1].values(),
			}
		}
		file.Sets = append(file.Sets, set)
	}
	if len(file.Sets) > 0 {
		file.Host.WALAppendMS = file.Sets[0].Workloads[workloads[0].name].PerLayer["wal.append_ms_serial"]
	}
	file.summarize(os.Stdout, spec)
	if o.smoke {
		return nil
	}
	if o.out == "" {
		o.out = filepath.Join(outDir, "sets.json")
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}

// bench holds what every run of one invocation shares.
type bench struct {
	spec      *benchSpec
	outDir    string  // WAL directories, traces and set files go here
	seconds   float64 // how long one run measures
	setups    int     // set-ups timed per end-to-end run
	microTime string  // testing's -benchtime for each microbenchmark
	cpu       int     // the CPU the process is pinned to, -1 if it is not
	// micro caches the layer microbenchmarks: they do not depend on the
	// workload, so one invocation runs them once.
	micro map[string]float64
}

// placement says where the process runs, for the report.
func (b *bench) placement() string {
	if b.cpu < 0 {
		return fmt.Sprintf("unpinned on %d CPUs", runtime.NumCPU())
	}
	return fmt.Sprintf("pinned to CPU %d of %d", b.cpu, runtime.NumCPU())
}

// runMode makes one run in this process: the end-to-end metrics for trace 0,
// the per-layer metrics otherwise.
func (b *bench) runMode(ctx context.Context, w *workloadSpec, seed int64, trace int) (*runResult, error) {
	if trace == 0 {
		return b.runEndToEnd(ctx, w, seed)
	}
	return b.runLayers(ctx, w, seed)
}

// smokeBench shrinks everything to a second per workload (half for each
// mode), three set-ups and one iteration per microbenchmark: enough to prove
// that every part runs and every name is emitted, not to measure anything.
func smokeBench(spec *benchSpec, outDir string) *bench {
	return &bench{spec: spec, outDir: outDir, seconds: 0.5, setups: 3, microTime: "1x", cpu: -1}
}

// Untraced runs split -seconds into one warm-up interval and nine measured
// ones (QR-ACN is still monitoring during the first); traced runs split it
// over three passes of one warm-up and three measured intervals each.
const (
	e2eWarmup, e2eMeasured     = 1, 9
	layerWarmup, layerMeasured = 1, 3
	layerPasses                = 3
)

// runResult is one run of one workload in either mode, ready to print.
type runResult struct {
	workload  string
	seed      int64
	metrics   *metricSet
	correct   bool
	attempted uint64
	failed    uint64
	samples   int // latency samples behind the end-to-end percentiles
	cpuCores  float64
	notes     []string
}

func (r *runResult) failedOpsRatio() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// resultLine is the object the driver reads from the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) resultLine() *resultLine {
	return &resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics.values}
}

func (l *resultLine) values() map[string]float64 {
	out := make(map[string]float64, len(l.Metrics))
	for name, v := range l.Metrics {
		out[name] = v.Value
	}
	return out
}

// runOne makes one run of a set. A real set starts a fresh process per run
// with exactly the driver's arguments, so that set files hold what the driver
// would have measured (a long-lived process that has already run other
// workloads, traced passes and microbenchmarks is not the same environment).
// The smoke set runs in this process, which is what lets the tests cover it.
func (b *bench) runOne(ctx context.Context, w *workloadSpec, seed int64, trace int, inProcess bool) (*resultLine, error) {
	if inProcess {
		r, err := b.runMode(ctx, w, seed, trace)
		if r != nil {
			r.print(os.Stdout)
		}
		if err != nil {
			return nil, err
		}
		return r.resultLine(), nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(b.seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	report, last, _ := strings.Cut(strings.TrimSuffix(string(out), "\n"), "\n{")
	fmt.Println(report)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", w.name, seed, trace, err)
	}
	var line resultLine
	if err := json.Unmarshal([]byte("{"+last), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: result line: %w", w.name, seed, trace, err)
	}
	return &line, nil
}

// runEndToEnd is the untraced run: wrappers off, one pass, the end-to-end
// metrics.
func (b *bench) runEndToEnd(ctx context.Context, w *workloadSpec, seed int64) (*runResult, error) {
	interval := time.Duration(b.seconds / (e2eWarmup + e2eMeasured) * float64(time.Second))
	res, err := runPass(ctx, w, passConfig{seed: seed, interval: interval, warmup: e2eWarmup, measured: e2eMeasured, setups: b.setups, cpu: b.cpu, tmpDir: b.outDir})
	if res == nil {
		return nil, err
	}
	r := &runResult{workload: w.name, seed: seed, metrics: newMetricSet(b.spec.EndToEnd), correct: err == nil,
		attempted: res.attempted, failed: res.failed, samples: res.commits}
	r.metrics.set("commit_tps", res.tps())
	p50, p95 := percentile(res.latencyMS, 0.50), percentile(res.latencyMS, 0.95)
	r.metrics.set("tx_latency_p50_ms", p50*res.discount())
	r.metrics.set("tx_latency_p95_ms", p95*res.discount())
	r.metrics.set("setup_s", median(res.setupS))
	r.cpuCores = ratio(res.cost.cpu.Seconds(), res.cost.wall.Seconds())
	r.notes = append(r.notes,
		fmt.Sprintf("failed_ops_ratio %.4f (%d of %d calls; %d cancelled at shutdown)", r.failedOpsRatio(), res.failed, res.attempted, res.cancelled),
		fmt.Sprintf("cluster.cpu_cores %.3f, %s", r.cpuCores, b.placement()),
		fmt.Sprintf("stolen by the hypervisor: %.2f %% of the window (discount %.4f); as timed: commit_tps %.2f, p50 %.3f ms, p95 %.3f ms",
			100*res.stolenShare(), res.discount(), float64(res.commits)/res.window.Seconds(), p50, p95),
		fmt.Sprintf("attempts/commit %.2f, setup_s min %.4f max %.4f over %d set-ups",
			ratio(float64(res.counters.Commits+res.counters.ParentAborts), float64(res.counters.Commits)),
			slices.Min(res.setupS), slices.Max(res.setupS), len(res.setupS)))
	r.notes = append(r.notes, fmt.Sprintf("commit_tps per measured interval: %.0f", res.perIntervalTPS),
		fmt.Sprintf("final Block sequences (per client and profile): %v, %d recompositions", res.finalComps, res.recomposes))
	if !tailSupported(res.commits, 0.95) {
		r.notes = append(r.notes, fmt.Sprintf("thin tail: %d samples leave fewer than ten beyond p95", res.commits))
	}
	if err == nil {
		err = r.metrics.check()
	}
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%s: %d of %d Execute calls failed", w.name, res.failed, res.attempted)
	}
	r.correct = err == nil
	return r, err
}

// runLayers is the traced run: an untraced QR-ACN reference pass, a flat
// QR-DTM pass and the traced QR-ACN pass on the same inputs, then the layer
// microbenchmarks; it prints the per-layer metrics.
func (b *bench) runLayers(ctx context.Context, w *workloadSpec, seed int64) (*runResult, error) {
	interval := time.Duration(b.seconds / (layerPasses * (layerWarmup + layerMeasured)) * float64(time.Second))
	cfg := passConfig{seed: seed, interval: interval, warmup: layerWarmup, measured: layerMeasured, cpu: b.cpu, tmpDir: b.outDir}
	r := &runResult{workload: w.name, seed: seed, metrics: newMetricSet(b.spec.PerLayer)}
	var passes [layerPasses]*passResult
	for i, shape := range []struct{ flat, traced bool }{{}, {flat: true}, {traced: true}} {
		c := cfg
		c.flat, c.traced = shape.flat, shape.traced
		res, err := runPass(ctx, w, c)
		if res != nil {
			r.attempted += res.attempted
			r.failed += res.failed
		}
		if err != nil {
			if res == nil {
				return nil, err
			}
			return r, err
		}
		passes[i] = res
	}
	ref, flat, traced := passes[0], passes[1], passes[2]
	r.samples = traced.commits

	if err := writeTrace(filepath.Join(b.outDir, w.name+".trace.json"), traced.spans); err != nil {
		return r, fmt.Errorf("write trace: %w", err)
	}
	st := analyzeTrace(traced)
	if b.micro == nil {
		micro, err := runMicro(b.outDir, b.microTime)
		if err != nil {
			return r, err
		}
		b.micro = micro
	}
	emitLayers(r.metrics, traced, ref, flat, st, b.micro)
	r.cpuCores = r.metrics.values["cluster.cpu_cores"].Value
	r.notes = append(r.notes,
		fmt.Sprintf("traced pass: %d commits, %d spans, self times sum to %.4f of tx span time", st.commits, len(traced.spans), st.selfSumRatio()),
		fmt.Sprintf("tx time by level: %.1f %% no call outstanding (acn+dtm), %.1f %% in flight (transport), %.1f %% in handlers (server+store+wal)",
			100*ratio(float64(st.txSelf), float64(st.txTotal)), 100*ratio(float64(st.netSelf), float64(st.txTotal)), 100*ratio(float64(st.serveSelf), float64(st.txTotal))),
		fmt.Sprintf("commit_tps: untraced %.1f, traced %.1f, flat QR-DTM %.1f", ref.tps(), traced.tps(), flat.tps()))
	if err := st.checkSelfSum(); err != nil {
		return r, err
	}
	if !w.durable && (ref.wal.Appends != 0 || ref.wal.Fsyncs != 0 || ref.walBytes != 0) {
		return r, fmt.Errorf("%s: volatile workload touched the WAL (%d appends, %d fsyncs)", w.name, ref.wal.Appends, ref.wal.Fsyncs)
	}
	if err := r.metrics.check(); err != nil {
		return r, err
	}
	if r.failed > 0 {
		return r, fmt.Errorf("%s: %d of %d Execute calls failed", w.name, r.failed, r.attempted)
	}
	r.correct = true
	return r, nil
}
