// Command qracn-bench regenerates the paper's evaluation (Figure 4, panels
// a-f): it runs each experiment for QR-DTM, QR-CN, and QR-ACN under an
// identical workload schedule on the in-process cluster and prints the
// per-interval throughput table plus the headline improvements next to the
// paper's numbers.
//
// Usage:
//
//	qracn-bench -fig all
//	qracn-bench -fig 4e -interval 2s -clients 16 -repeat 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"qracn/cmd/internal/flags"
	"qracn/internal/harness"
)

func main() {
	// base is what every figure's experiment is built on; each experiment
	// flag writes the one field it tunes.
	var base harness.Options
	var (
		fig      = flag.String("fig", "all", "figure to reproduce: 4a..4f or 'all'")
		repeat   = flag.Int("repeat", 1, "repetitions to average (paper: 4)")
		modesArg = flag.String("modes", "all", "systems to run: all, dtm, cn, acn, cp (comma-separated; 'all' = the paper's three)")
		ablation = flag.Bool("ablation", false, "run the ACN step-ablation study instead of the system comparison")
		sweep    = flag.String("sweep", "", "comma-separated client counts for a scalability sweep (e.g. 2,4,8,16)")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of tables")
		jsonFile = flag.String("json-out", "", "write the JSON results to this file (implies -json)")
		noWAL    = flag.Bool("no-wal", false, "run the nodes volatile (no commit log) — the pre-durability configuration")
		stages   = flag.Bool("stages", false, "print per-stage latency percentiles (read, prefetch, prepare, commit, fsync wait) after each summary")
	)
	flag.DurationVar(&base.IntervalLength, "interval", 400*time.Millisecond, "measurement interval length (paper: 10s)")
	flag.IntVar(&base.Clients, "clients", 8, "client nodes (paper: up to 20)")
	flag.IntVar(&base.ThreadsPerClient, "threads", 2, "concurrent transactions per client")
	flag.IntVar(&base.Servers, "servers", 10, "quorum nodes (paper: 10)")
	flag.Int64Var(&base.Seed, "seed", 1, "base random seed")
	flag.BoolVar(&base.DisablePrefetch, "no-prefetch", false, "disable the batched first-access read prefetch (A/B the RPC pipeline)")
	flag.DurationVar(&base.Node.ResolveAfter, "resolve-after", 0, "run the nodes' cooperative termination loop with this in-doubt deadline (0: off)")
	flag.StringVar(&base.WALDir, "wal-dir", "", "base directory for per-run commit logs (default: system temp)")
	flag.DurationVar(&base.FsyncInterval, "fsync-interval", 0, "linger bound of unforced log records (0: 10ms default)")
	flag.IntVar(&base.TraceCapacity, "trace-capacity", 0, "span ring size per node and client; >0 turns tracing on")
	flag.IntVar(&base.Shards, "shards", 0, "partition the keyspace across this many independent quorum groups (0/1: one cluster-wide tree)")
	flags.Client(flag.CommandLine, &base.Client)
	flags.Node(flag.CommandLine, &base.Node)
	// Clients inherit the nodes' forensics settings (cluster.Config.Node).
	flags.Forensics(flag.CommandLine, &base.Node.ForensicsRing, &base.Node.NoForensics)
	flag.Parse()
	if *jsonFile != "" {
		*jsonOut = true
	}
	base.Durable = !*noWAL

	modes, err := parseModes(*modesArg)
	var counts []int
	if err == nil {
		counts, err = checkArgs(*repeat, *sweep, *jsonFile, *ablation)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var figures []harness.Figure
	if *fig == "all" {
		figures = harness.Figures()
	} else {
		f, ok := harness.FigureByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (use 4a..4f or all)\n", *fig)
			os.Exit(2)
		}
		figures = []harness.Figure{f}
	}

	ctx := context.Background()
	var jsonDocs []json.RawMessage
	for _, f := range figures {
		fmt.Printf("=== Figure %s: %s ===\n", f.ID, f.Title)
		fmt.Printf("paper: %s\n\n", f.Expect)
		if *ablation {
			if err := runAblation(ctx, f, base); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s ablation: %v\n", f.ID, err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if counts != nil {
			sr, err := harness.SweepClients(ctx, f.Options(base), modes, counts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s sweep: %v\n", f.ID, err)
				os.Exit(1)
			}
			fmt.Print(sr.Table())
			fmt.Println()
			continue
		}
		res, err := runAveraged(ctx, f, base, modes, *repeat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		if *jsonOut {
			data, err := res.ExportJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			jsonDocs = append(jsonDocs, data)
			if *jsonFile == "" {
				fmt.Println(string(data))
			}
			continue
		}
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.Summary())
		if !base.Node.NoForensics {
			fmt.Println()
			fmt.Print(res.AbortRatioTable())
		}
		if *stages {
			fmt.Println()
			fmt.Print(res.StageReport())
		}
		fmt.Println()
	}
	if *jsonFile != "" {
		var doc any = jsonDocs
		if len(jsonDocs) == 1 {
			doc = jsonDocs[0]
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonFile, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonFile)
	}
}

// runAblation measures QR-ACN with each algorithm step disabled in turn,
// quantifying what re-attachment, merging, and contention sorting each
// contribute (the design-choice index in DESIGN.md).
func runAblation(ctx context.Context, f harness.Figure, base harness.Options) error {
	variants := []struct {
		name string
		mut  func(*harness.Options)
	}{
		{"full ACN", func(*harness.Options) {}},
		{"no reattach (step 1 off)", func(o *harness.Options) { o.Algo.DisableReattach = true }},
		{"no merge (step 2 off)", func(o *harness.Options) { o.Algo.DisableMerge = true }},
		{"no sort (step 3 off)", func(o *harness.Options) { o.Algo.DisableSort = true }},
		{"static only (all off)", func(o *harness.Options) {
			o.Algo.DisableReattach = true
			o.Algo.DisableMerge = true
			o.Algo.DisableSort = true
		}},
	}
	fmt.Printf("%-28s %12s %12s\n", "variant", "mean tx/s", "commits")
	for _, v := range variants {
		opts := f.Options(base)
		v.mut(&opts)
		res, err := harness.Run(ctx, opts, []harness.Mode{harness.ModeQRACN})
		if err != nil {
			return err
		}
		s := res.Series[harness.ModeQRACN]
		var mean float64
		for _, tp := range s.Throughput {
			mean += tp
		}
		mean /= float64(len(s.Throughput))
		fmt.Printf("%-28s %12.0f %12d\n", v.name, mean, s.Commits)
	}
	return nil
}

// checkArgs refuses, before the first run, the arguments no run can honour:
// a -repeat below 1, a -sweep without positive integer counts, and -json-out
// with -sweep or -ablation, which print no JSON. It returns the sweep's
// client counts (nil: no sweep).
func checkArgs(repeat int, sweep, jsonFile string, ablation bool) ([]int, error) {
	if repeat < 1 {
		return nil, fmt.Errorf("-repeat %d: want at least one run", repeat)
	}
	if jsonFile != "" && (sweep != "" || ablation) {
		return nil, fmt.Errorf("-json-out %s: -sweep and -ablation print tables, not JSON", jsonFile)
	}
	if sweep == "" {
		return nil, nil
	}
	return parseInts(sweep)
}

func parseModes(arg string) ([]harness.Mode, error) {
	if arg == "all" {
		return harness.AllModes, nil
	}
	var modes []harness.Mode
	for _, tok := range splitComma(arg) {
		m, err := harness.ParseMode(tok)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range splitComma(s) {
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid count %q", tok)
		}
		out = append(out, n)
	}
	if out == nil {
		return nil, fmt.Errorf("no count in %q", s)
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// runAveraged repeats the experiment with shifted seeds and averages the
// per-interval throughput, as the paper does over four runs.
func runAveraged(ctx context.Context, f harness.Figure, base harness.Options, modes []harness.Mode, repeat int) (*harness.Result, error) {
	var acc *harness.Result
	for r := 0; r < repeat; r++ {
		opts := f.Options(base)
		opts.Seed = base.Seed + int64(r)*100
		res, err := harness.Run(ctx, opts, modes)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = res
			continue
		}
		for m, series := range res.Series {
			addSeries(acc.Series[m], series)
		}
	}
	for _, series := range acc.Series {
		for i := range series.Throughput {
			series.Throughput[i] /= float64(repeat)
		}
	}
	return acc, nil
}

// addSeries folds one repetition's series into the running total a: the
// per-interval throughput (runAveraged divides it afterwards) and every
// counter group sum. Stage percentiles are digests and cannot be summed; the
// first repetition's digest stands for the figure.
func addSeries(a, s *harness.Series) {
	for i := range a.Throughput {
		a.Throughput[i] += s.Throughput[i]
	}
	a.Commits += s.Commits
	a.DroppedCommits += s.DroppedCommits
	// Reflection-based: every runtime counter aggregates, including ones
	// added after this was written.
	a.Metrics.Add(s.Metrics)
	a.WAL.Add(s.WAL)
	a.Resolution.Add(s.Resolution)
	a.Admission.Add(s.Admission)
	a.Forensics.Merge(s.Forensics)
	for i := range a.Shards {
		if i < len(s.Shards) {
			a.Shards[i].Add(s.Shards[i])
		}
	}
	if a.Metrics.Commits > 0 {
		a.CrossShardRatio = float64(a.Metrics.CrossShardCommits) / float64(a.Metrics.Commits)
	}
}
