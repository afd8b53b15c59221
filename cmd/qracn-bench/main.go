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
	"time"

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
	flag.BoolVar(&base.Client.NoRepair, "no-repair", false, "disable asynchronous read-repair of stale quorum members (A/B fault recovery)")
	flag.DurationVar(&base.Client.DecideTimeout, "decide-timeout", 0, "per-client budget for delivering a 2PC decision after a yes-vote quorum (0: 10s default)")
	flag.DurationVar(&base.Node.ResolveAfter, "resolve-after", 0, "run the nodes' cooperative termination loop with this in-doubt deadline (0: off)")
	flag.StringVar(&base.WALDir, "wal-dir", "", "base directory for per-run commit logs (default: system temp)")
	flag.DurationVar(&base.FsyncInterval, "fsync-interval", 0, "linger bound of unforced log records (0: 10ms default)")
	flag.IntVar(&base.Node.SnapshotEvery, "snapshot-every", 0, "checkpoint the store once N records, or the last snapshot's size if larger, are logged since the last one (0: default; negative: never)")
	flag.IntVar(&base.TraceCapacity, "trace-capacity", 0, "span/event ring size per node and client; >0 turns tracing on")
	flag.IntVar(&base.Client.TraceSample, "trace-sample", 1, "with tracing on, record spans for 1-in-N transactions (0/1: all, negative: events only)")
	flag.IntVar(&base.Shards, "shards", 0, "partition the keyspace across this many independent quorum groups (0/1: one cluster-wide tree)")

	flag.IntVar(&base.Node.MaxInflight, "max-inflight", 0, "admission control on every node: max concurrently executing gated requests (0: gate off)")
	flag.IntVar(&base.Node.QueueDepth, "queue-depth", 0, "admission wait-queue depth before requests are shed with StatusOverloaded (0: 4x -max-inflight)")
	flag.DurationVar(&base.Client.TxDeadline, "tx-deadline", 0, "end-to-end deadline per transaction, propagated so servers refuse expired work (0: none)")
	flag.IntVar(&base.Client.RetryBudget, "retry-budget", 0, "retries per transaction attempt shared across failover, busy, and overload backoff (0: dtm default; negative: unlimited)")
	flag.DurationVar(&base.Client.HedgeAfter, "hedge-after", 0, "hedge quorum reads to one spare replica after this delay (0: off; negative: auto from observed p99)")

	flag.IntVar(&base.Node.ForensicsRing, "forensics-ring", 0, "abort-forensics event ring capacity per node and client (0: 4096 default)")
	flag.BoolVar(&base.Node.NoForensics, "no-forensics", false, "disable abort forensics entirely (conflict attribution rings and witnesses)")
	flag.Parse()
	if *jsonFile != "" {
		*jsonOut = true
	}
	base.Durable = !*noWAL

	modes, err := parseModes(*modesArg)
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
		if *sweep != "" {
			counts, err := parseInts(*sweep)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
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
		var blob []byte
		switch len(jsonDocs) {
		case 0:
			fmt.Fprintln(os.Stderr, "no JSON results produced; nothing written")
			os.Exit(1)
		case 1:
			blob = append([]byte(nil), jsonDocs[0]...)
		default:
			var err error
			if blob, err = json.MarshalIndent(jsonDocs, "", "  "); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonFile, blob, 0o644); err != nil {
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

func parseModes(arg string) ([]harness.Mode, error) {
	if arg == "all" {
		return harness.AllModes, nil
	}
	var modes []harness.Mode
	for _, tok := range splitComma(arg) {
		switch tok {
		case "dtm":
			modes = append(modes, harness.ModeQRDTM)
		case "cn":
			modes = append(modes, harness.ModeQRCN)
		case "acn":
			modes = append(modes, harness.ModeQRACN)
		case "cp":
			modes = append(modes, harness.ModeQRCP)
		default:
			return nil, fmt.Errorf("unknown mode %q (use dtm, cn, acn, cp)", tok)
		}
	}
	return modes, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range splitComma(s) {
		n := 0
		for _, r := range tok {
			if r < '0' || r > '9' {
				return nil, fmt.Errorf("invalid count %q", tok)
			}
			n = n*10 + int(r-'0')
		}
		if n == 0 {
			return nil, fmt.Errorf("invalid count %q", tok)
		}
		out = append(out, n)
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
	if repeat < 1 {
		repeat = 1
	}
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
			a := acc.Series[m]
			for i := range a.Throughput {
				a.Throughput[i] += series.Throughput[i]
			}
			a.Commits += series.Commits
			// Reflection-based: every counter aggregates, including ones
			// added after this loop was written.
			a.Metrics.Add(series.Metrics)
			a.DroppedCommits += series.DroppedCommits
			a.WAL.Add(series.WAL)
			a.Admission.Add(series.Admission)
			a.Forensics.Merge(series.Forensics)
			for i := range a.Shards {
				if i < len(series.Shards) {
					a.Shards[i].Add(series.Shards[i])
				}
			}
			if a.Metrics.Commits > 0 {
				a.CrossShardRatio = float64(a.Metrics.CrossShardCommits) / float64(a.Metrics.Commits)
			}
			// Stage percentiles are digests and cannot be averaged across
			// runs; the first repetition's digest stands for the figure.
		}
	}
	for _, series := range acc.Series {
		for i := range series.Throughput {
			series.Throughput[i] /= float64(repeat)
		}
	}
	return acc, nil
}
