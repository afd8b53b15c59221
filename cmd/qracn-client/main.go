// Command qracn-client drives a workload against a TCP-deployed cluster of
// qracn-node processes and reports throughput per interval for the chosen
// system (QR-DTM, QR-CN, or QR-ACN).
//
// Usage:
//
//	qracn-node -id 0 -listen :7450 & qracn-node -id 1 -listen :7451 & ...
//	qracn-client -nodes 127.0.0.1:7450,127.0.0.1:7451,127.0.0.1:7452,127.0.0.1:7453 \
//	    -workload bank -mode acn -threads 4 -intervals 6 -interval 2s -seed-data
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"qracn/internal/acn"
	"qracn/internal/dtm"
	"qracn/internal/health"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/workload"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
	"qracn/internal/workload/vacation"
)

func main() {
	// dcfg is the client runtime's configuration and hcfg its failure
	// detector's; each tuning flag writes its field.
	var (
		dcfg dtm.Config
		hcfg health.Config
	)
	var (
		nodesArg   = flag.String("nodes", "", "comma-separated node addresses, tree order (node 0 first)")
		wlArg      = flag.String("workload", "bank", "workload: bank, tpcc, vacation")
		modeArg    = flag.String("mode", "acn", "system: dtm, cn, acn")
		threads    = flag.Int("threads", 4, "concurrent transactions")
		intervals  = flag.Int("intervals", 6, "measurement intervals")
		interval   = flag.Duration("interval", 2*time.Second, "interval length")
		seedData   = flag.Bool("seed-data", false, "install the workload's initial objects before running")
		compress   = flag.Bool("compress", false, "flate-compress large frames")
		noPrefetch = flag.Bool("no-prefetch", false, "disable the batched first-access read prefetch")
		traceCap   = flag.Int("trace", 0, "span/event ring size for distributed tracing; >0 turns tracing on")
		spansOut   = flag.String("spans-out", "", "after the run, fetch this client's spans plus every node's and write them as JSON (implies tracing)")
	)
	flag.Int64Var(&dcfg.Seed, "seed", 1, "random seed")
	flag.IntVar(&dcfg.ClientSeed, "client", 1, "client identity (spreads quorum selection)")

	flag.IntVar(&hcfg.SuspectAfter, "suspect-after", 3, "rapid RPC failures before a node is suspected and excluded from quorums")
	flag.DurationVar(&hcfg.ProbeInterval, "probe-interval", 250*time.Millisecond, "how often one trial request probes a suspected node")
	flag.BoolVar(&dcfg.NoRepair, "no-repair", false, "disable asynchronous read-repair of stale quorum members")
	flag.DurationVar(&dcfg.DecideTimeout, "decide-timeout", 0, "per-transaction budget for delivering the 2PC decision after a yes-vote quorum (0: 10s; keep below the nodes' -ttl-abort-after)")
	flag.DurationVar(&dcfg.TxDeadline, "tx-deadline", 0, "end-to-end deadline per transaction, propagated on every request so servers refuse expired work (0: none)")
	flag.IntVar(&dcfg.RetryBudget, "retry-budget", 0, "retries per transaction attempt shared across failover, busy, and overload backoff (0: 1000; negative: unlimited)")
	flag.DurationVar(&dcfg.HedgeAfter, "hedge-after", 0, "hedge quorum reads to one extra replica after this delay (0: off; negative: auto from observed p99 read latency)")
	flag.IntVar(&dcfg.TraceSample, "trace-sample", 1, "with tracing on, record spans for 1-in-N transactions (0/1: all, negative: events only)")
	flag.IntVar(&dcfg.ForensicsRing, "forensics-ring", 0, "abort-forensics event ring capacity (0: 4096 default)")
	flag.BoolVar(&dcfg.NoForensics, "no-forensics", false, "disable abort forensics on this client")
	flag.Parse()

	addrs := map[quorum.NodeID]string{}
	parts := strings.Split(*nodesArg, ",")
	if *nodesArg == "" || len(parts) == 0 {
		fmt.Fprintln(os.Stderr, "-nodes is required")
		os.Exit(2)
	}
	for i, a := range parts {
		addrs[quorum.NodeID(i)] = strings.TrimSpace(a)
	}

	var w workload.Workload
	switch *wlArg {
	case "bank":
		w = bank.New(bank.Config{})
	case "tpcc":
		w = tpcc.New(tpcc.Config{MixNewOrder: 50, MixPayment: 30, MixDelivery: 20})
	case "vacation":
		w = vacation.New(vacation.Config{})
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wlArg)
		os.Exit(2)
	}

	if *spansOut != "" && *traceCap == 0 {
		*traceCap = 4096
	}
	client := transport.NewTCPClient(addrs, *compress)
	defer client.Close()

	// Sharded clusters advertise their shard map; fetch it from the first
	// answering node so every access routes to its owning quorum group. An
	// unsharded cluster answers not-found and the client runs over the
	// single tree — the fetch failing is not an error.
	var allNodes []quorum.NodeID
	for i := range parts {
		allNodes = append(allNodes, quorum.NodeID(i))
	}
	mapCtx, cancelMap := context.WithTimeout(context.Background(), 5*time.Second)
	shards, shardErr := dtm.FetchShardMap(mapCtx, client, allNodes, nil)
	cancelMap()
	if shardErr == nil {
		fmt.Printf("shard map %q (version %d, %d groups)\n", shards.String(), shards.Version(), shards.NumShards())
	} else {
		shards = nil
	}

	dcfg.Tree = quorum.NewTree(len(addrs), 3)
	dcfg.Shards = shards
	dcfg.Client = client
	dcfg.Health = health.New(hcfg)
	if *traceCap > 0 {
		dcfg.Tracer = trace.New(*traceCap)
	}
	rt := dtm.New(dcfg)
	client.SetRetryCounter(&rt.Metrics().TransportRetries)
	ctx := context.Background()

	if *seedData {
		if err := seedObjects(ctx, rt, w.SeedObjects()); err != nil {
			fmt.Fprintf(os.Stderr, "seeding: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("seeded %d objects\n", len(w.SeedObjects()))
	}

	execs, hub, err := buildExecutors(rt, w, *modeArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, exec := range execs {
		exec.SetPrefetch(!*noPrefetch)
	}

	meter := metrics.NewThroughputMeter(*intervals)
	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for th := 0; th < *threads; th++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for runCtx.Err() == nil {
				prof, params := w.Generate(rng, 0)
				if err := execs[prof].Execute(runCtx, params); err != nil {
					return
				}
				meter.Record()
			}
		}(dcfg.Seed + int64(th))
	}

	for i := 0; i < *intervals; i++ {
		time.Sleep(*interval)
		if hub != nil {
			if err := hub.RefreshOnce(runCtx); err != nil {
				fmt.Fprintf(os.Stderr, "refresh: %v\n", err)
			}
		}
		counts := meter.Counts()
		fmt.Printf("t%d: %.0f tx/s\n", i+1, float64(counts[i])/interval.Seconds())
		meter.Advance()
	}
	cancel()
	wg.Wait()
	m := rt.Metrics().Snapshot()
	fmt.Printf("total commits=%d full-aborts=%d partial-aborts=%d\n",
		m.Commits, m.ParentAborts, m.SubAborts)
	if shards != nil {
		fmt.Printf("sharding: single-shard-commits=%d cross-shard-commits=%d cross-shard-aborts=%d\n",
			m.SingleShardCommits, m.CrossShardCommits, m.CrossShardAborts)
		for s, c := range rt.ShardSnapshot() {
			fmt.Printf("  shard %d: commits=%d full-aborts=%d partial-aborts=%d\n",
				s, c.Commits, c.ParentAborts, c.SubAborts)
		}
	}
	fmt.Printf("reads: rounds=%d batched=%d prefetched-objects=%d transport-retries=%d\n",
		m.RemoteReads, m.BatchReads, m.PrefetchedObjects, m.TransportRetries)
	fmt.Printf("faults: failovers=%d suspicions=%d probes=%d readmissions=%d repairs=%d\n",
		m.Failovers, m.Suspicions, m.Probes, m.Readmissions, m.Repairs)
	fmt.Printf("overload: backoffs=%d budget-exhausted=%d hedges-fired=%d hedge-wins=%d\n",
		m.OverloadBackoffs, m.BudgetExhausted, m.HedgesFired, m.HedgeWins)
	if !dcfg.NoForensics {
		fmt.Printf("forensics: read-val=%d lock=%d commit-round=%d deadline=%d overload=%d blocks=[%d %d %d %d]",
			m.AbortsReadValidation, m.AbortsLockConflict, m.AbortsCommitRound,
			m.AbortsDeadline, m.AbortsOverload,
			m.AbortsBlock0, m.AbortsBlock1, m.AbortsBlock2, m.AbortsBlock3Plus)
		for i, h := range rt.Forensics().HotKeys(3) {
			if i == 0 {
				fmt.Print(" hot:")
			}
			fmt.Printf(" %s(%d)", h.Key, h.Conflicts)
		}
		fmt.Println()
	}
	st := rt.Stages()
	fmt.Printf("stages: read[%s] prefetch[%s] prepare[%s] commit[%s]\n",
		st.Read.Summarize(), st.PrefetchBatch.Summarize(),
		st.Prepare.Summarize(), st.Commit.Summarize())

	if *spansOut != "" {
		var nodes []quorum.NodeID
		for id := range addrs {
			nodes = append(nodes, id)
		}
		spans, err := rt.FetchSpans(ctx, nodes, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fetching spans: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*spansOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.WriteSpans(f, spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%d spans (%d traces) written to %s\n",
			len(spans), len(trace.TraceIDs(spans)), *spansOut)
	}
}

// buildExecutors makes one executor per profile. In acn mode it also
// registers them all on one Hub, the client's one adaptation path: one
// stats query per refresh covers every profile's objects.
func buildExecutors(rt *dtm.Runtime, w workload.Workload, mode string) ([]*acn.Executor, *acn.Hub, error) {
	var execs []*acn.Executor
	var hub *acn.Hub
	if mode == "acn" {
		hub = acn.NewHub(rt, acn.HubConfig{})
	}
	for _, prof := range w.Profiles() {
		an, err := unitgraph.Analyze(prof.Program)
		if err != nil {
			return nil, nil, fmt.Errorf("analyze %s: %w", prof.Name, err)
		}
		var comp *acn.Composition
		switch mode {
		case "dtm":
			comp = acn.Flat(an)
		case "cn":
			if prof.Manual == nil {
				comp = acn.Flat(an)
			} else if comp, err = acn.Manual(an, prof.Manual); err != nil {
				return nil, nil, err
			}
		case "acn":
			comp = acn.Static(an)
		default:
			return nil, nil, fmt.Errorf("unknown mode %q (use dtm, cn, acn)", mode)
		}
		exec := acn.NewExecutor(rt, an, comp)
		execs = append(execs, exec)
		if hub != nil {
			hub.Register(exec, acn.AlgoConfig{})
		}
	}
	return execs, hub, nil
}

// seedObjects installs initial data in batches of small transactions.
func seedObjects(ctx context.Context, rt *dtm.Runtime, objs map[store.ObjectID]store.Value) error {
	const batch = 64
	ids := make([]store.ObjectID, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	for from := 0; from < len(ids); from += batch {
		to := from + batch
		if to > len(ids) {
			to = len(ids)
		}
		chunk := ids[from:to]
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			for _, id := range chunk {
				if err := tx.Write(id, objs[id]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
