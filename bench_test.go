// Benchmarks regenerating the paper's evaluation. One benchmark per panel
// of Figure 4 runs the full three-system comparison at a reduced scale and
// reports each system's mean throughput as custom metrics, so the paper's
// "who wins and by how much" is visible straight from `go test -bench`.
// Microbenchmarks below cover the protocol layers and the ablations called
// out in DESIGN.md (algorithm-module cost, nesting overhead, step
// disabling, compression).
package qracn_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qracn"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/harness"
	"qracn/internal/model"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
	"qracn/internal/wire"
	"qracn/internal/workload/bank"
)

// benchScale shrinks the default experiment so one benchmark iteration
// stays in the seconds range.
func benchScale() qracn.ExperimentOptions {
	return qracn.ExperimentOptions{
		IntervalLength:   150 * time.Millisecond,
		Clients:          4,
		ThreadsPerClient: 2,
	}
}

func benchFigure(b *testing.B, id string) {
	fig, ok := qracn.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := qracn.RunExperiment(ctx, fig.Options(benchScale()), qracn.AllModes)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range qracn.AllModes {
			s := res.Series[m]
			var mean float64
			for _, tp := range s.Throughput {
				mean += tp
			}
			mean /= float64(len(s.Throughput))
			b.ReportMetric(mean, m.String()+"-tx/s")
		}
		b.ReportMetric(res.SteadyImprovement(qracn.QRACN, qracn.QRDTM), "ACNvsDTM-%")
		b.ReportMetric(res.SteadyImprovement(qracn.QRACN, qracn.QRCN), "ACNvsCN-%")
	}
}

// Figure 4 panels (see DESIGN.md's per-experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers at full scale).

func BenchmarkFig4a_TPCCNewOrder(b *testing.B) { benchFigure(b, "4a") }
func BenchmarkFig4b_TPCCPayment(b *testing.B)  { benchFigure(b, "4b") }
func BenchmarkFig4c_TPCCMixed(b *testing.B)    { benchFigure(b, "4c") }
func BenchmarkFig4d_TPCCDelivery(b *testing.B) { benchFigure(b, "4d") }
func BenchmarkFig4e_Vacation(b *testing.B)     { benchFigure(b, "4e") }
func BenchmarkFig4f_Bank(b *testing.B)         { benchFigure(b, "4f") }

// --- Protocol microbenchmarks -------------------------------------------

func benchCluster(b *testing.B) (*cluster.Cluster, *dtm.Runtime) {
	b.Helper()
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	b.Cleanup(c.Close)
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < 1024; i++ {
		objs[store.ID("obj", i)] = store.Int64(0)
	}
	c.Seed(objs)
	return c, c.Runtime(1, dtm.Config{Seed: 1})
}

// BenchmarkQuorumRead measures one read-only transaction: a single quorum
// read plus read-quorum validation.
func BenchmarkQuorumRead(b *testing.B) {
	_, rt := benchCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := store.ID("obj", i%1024)
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			_, err := tx.Read(id)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommit measures an uncontended read-modify-write transaction:
// quorum read + two-phase commit over the write quorum.
func BenchmarkCommit(b *testing.B) {
	_, rt := benchCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := store.ID("obj", i%1024)
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			v, err := tx.Read(id)
			if err != nil {
				return err
			}
			return tx.Write(id, store.Int64(store.AsInt64(v)+1))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorNestingOverhead compares flat execution with the finest
// closed-nesting decomposition on an uncontended transfer: the pure cost of
// sub-transaction contexts and merging (the overhead bounded by Fig. 4(d)).
func BenchmarkExecutorNestingOverhead(b *testing.B) {
	prog := bank.TransferProgram()
	an, err := unitgraph.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		comp func() *acn.Composition
	}{
		{"flat", func() *acn.Composition { return acn.Flat(an) }},
		{"nested", func() *acn.Composition { return acn.Static(an) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
			defer c.Close()
			c.Seed(bank.New(bank.Config{Branches: 8, Accounts: 64}).SeedObjects())
			rt := c.Runtime(1, dtm.Config{Seed: 1})
			exec := acn.NewExecutor(rt, an, tc.comp())
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params := map[string]any{
					"srcBranch": i % 8, "dstBranch": (i + 1) % 8,
					"srcAcct": i % 64, "dstAcct": (i + 1) % 64,
					"amount": 1,
				}
				if err := exec.Execute(ctx, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ACN algorithm-module benchmarks (§V-C3 overhead claim) --------------

// syntheticAnalysis builds a chain-free program with n UnitBlocks and one
// local op per block.
func syntheticAnalysis(b *testing.B, n int) *unitgraph.Analysis {
	b.Helper()
	p := txir.NewProgram(fmt.Sprintf("synthetic-%d", n))
	for i := 0; i < n; i++ {
		cls := fmt.Sprintf("c%d", i)
		dst := txir.Var(fmt.Sprintf("v%d", i))
		out := txir.Var(fmt.Sprintf("o%d", i))
		id := store.ID(cls)
		p.Read(cls, cls, func(*txir.Env) store.ObjectID { return id }, dst)
		p.Local(func(*txir.Env) error { return nil }, []txir.Var{dst}, []txir.Var{out})
	}
	an, err := unitgraph.Analyze(p)
	if err != nil {
		b.Fatal(err)
	}
	return an
}

// BenchmarkAlgorithmModule measures one full three-step recomposition as a
// function of transaction size. The paper argues this cost is negligible
// for realistic transaction sizes; the numbers here substantiate it.
func BenchmarkAlgorithmModule(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			an := syntheticAnalysis(b, n)
			alg := acn.NewAlgorithm(an, acn.AlgoConfig{})
			level := func(id int) float64 { return float64((id * 7) % 13) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg.Recompose(level)
			}
		})
	}
}

// BenchmarkAlgorithmSteps isolates the three steps for the DESIGN.md
// ablation: each variant disables one step.
func BenchmarkAlgorithmSteps(b *testing.B) {
	an := syntheticAnalysis(b, 16)
	level := func(id int) float64 { return float64((id * 7) % 13) }
	for _, tc := range []struct {
		name string
		cfg  acn.AlgoConfig
	}{
		{"all", acn.AlgoConfig{}},
		{"no-reattach", acn.AlgoConfig{DisableReattach: true}},
		{"no-merge", acn.AlgoConfig{DisableMerge: true}},
		{"no-sort", acn.AlgoConfig{DisableSort: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			alg := acn.NewAlgorithm(an, tc.cfg)
			for i := 0; i < b.N; i++ {
				alg.Recompose(level)
			}
		})
	}
}

// BenchmarkStaticAnalysis measures the static module over the real
// workload programs.
func BenchmarkStaticAnalysis(b *testing.B) {
	prog := bank.TransferProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unitgraph.Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbortModel measures the analytic model (AbortProb + Combine over
// an 8-block transaction).
func BenchmarkAbortModel(b *testing.B) {
	m := model.DefaultModel()
	probs := make([]float64, 8)
	for i := 0; i < b.N; i++ {
		for j := range probs {
			probs[j] = m.AbortProb(float64(j * 3))
		}
		_ = m.Combine(probs)
	}
}

// --- Wire benchmarks ------------------------------------------------------

func benchEnvelope() *wire.Envelope {
	reads := make([]store.ReadDesc, 32)
	for i := range reads {
		reads[i] = store.ReadDesc{ID: store.ID("warehouse", i), Version: uint64(i)}
	}
	return &wire.Envelope{
		Seq: 7,
		Req: &wire.Request{
			Kind:    wire.KindPrepare,
			TxID:    "c1-t42-a0",
			Prepare: &wire.PrepareRequest{Reads: reads},
		},
	}
}

// BenchmarkWireMarshal measures encoding of a 32-read prepare message with
// the appending binary encoder.
func BenchmarkWireMarshal(b *testing.B) {
	env := benchEnvelope()
	var buf []byte
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf, err = wire.AppendEnvelope(buf[:0], env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrame compares framing with and without flate compression (the
// paper compresses piggybacked stats to bound their cost).
func BenchmarkFrame(b *testing.B) {
	env := benchEnvelope()
	payload, err := wire.AppendEnvelope(nil, env)
	if err != nil {
		b.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "flate"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			buf := make(discard, 0)
			enc := wire.NewBinaryEncoder(&buf, compress)
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discard []byte

func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkMergeThreshold sweeps the step-2 threshold (design-choice
// ablation: how aggressively similar-contention blocks merge).
func BenchmarkMergeThreshold(b *testing.B) {
	an := syntheticAnalysis(b, 16)
	level := func(id int) float64 { return float64(id % 4) }
	for _, th := range []float64{0.05, 0.3, 0.9} {
		b.Run(fmt.Sprintf("th=%.2f", th), func(b *testing.B) {
			alg := acn.NewAlgorithm(an, acn.AlgoConfig{MergeThreshold: th})
			var blocks int
			for i := 0; i < b.N; i++ {
				blocks = alg.Recompose(level).NumBlocks()
			}
			b.ReportMetric(float64(blocks), "blocks")
		})
	}
}

// BenchmarkHarnessSmall measures a complete miniature experiment (all three
// systems) as a smoke benchmark for the harness itself.
func BenchmarkHarnessSmall(b *testing.B) {
	opts := harness.Options{
		Workload:         bank.New(bank.Config{Branches: 8, Accounts: 64}),
		Servers:          4,
		Clients:          2,
		ThreadsPerClient: 1,
		Intervals:        2,
		IntervalLength:   50 * time.Millisecond,
		Seed:             3,
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(ctx, opts, harness.AllModes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointingVsClosedNesting runs the Bank shifting-hot-spot
// experiment with the checkpointing system added — the comparison the paper
// cites from its reference [10] (closed nesting vs checkpointing as partial
// rollback mechanisms).
func BenchmarkCheckpointingVsClosedNesting(b *testing.B) {
	fig, _ := qracn.FigureByID("4f")
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := qracn.RunExperiment(ctx, fig.Options(benchScale()), qracn.AllModesWithCheckpoint)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range qracn.AllModesWithCheckpoint {
			s := res.Series[m]
			var mean float64
			for _, tp := range s.Throughput {
				mean += tp
			}
			b.ReportMetric(mean/float64(len(s.Throughput)), m.String()+"-tx/s")
		}
	}
}

// BenchmarkTransport compares one uncontended read-modify-write transaction
// over the in-process channel transport and over real loopback TCP, sizing
// the fidelity gap between the simulated and the real network path.
func BenchmarkTransport(b *testing.B) {
	run := func(b *testing.B, rt *dtm.Runtime) {
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := store.ID("obj", i%64)
			if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				return tx.Write(id, store.Int64(store.AsInt64(v)+1))
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	seed := func() map[store.ObjectID]store.Value {
		objs := map[store.ObjectID]store.Value{}
		for i := 0; i < 64; i++ {
			objs[store.ID("obj", i)] = store.Int64(0)
		}
		return objs
	}
	b.Run("channel", func(b *testing.B) {
		c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
		defer c.Close()
		c.Seed(seed())
		run(b, c.Runtime(1, dtm.Config{Seed: 1}))
	})
	b.Run("tcp", func(b *testing.B) {
		c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		c.Seed(seed())
		run(b, c.Runtime(1, dtm.Config{Seed: 1}))
	})
}

// BenchmarkPrefetchVsSerialReads isolates the read phase of a Bank audit
// transaction (k first-access reads, no writes) on a loopback TCP cluster:
// "serial" pays one quorum round per read, "prefetch" collapses them into a
// single batched round via Tx.Prefetch. The ratio is the round-trip saving
// the batched RPC pipeline buys on real sockets.
func BenchmarkPrefetchVsSerialReads(b *testing.B) {
	const k = 8
	c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Seed(bank.New(bank.Config{Branches: 8, Accounts: 64}).SeedObjects())

	audit := func(rt *dtm.Runtime, base int, prefetch bool) error {
		return rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
			ids := make([]store.ObjectID, k)
			for j := range ids {
				ids[j] = store.ID("account", (base+j)%64)
			}
			if prefetch {
				if err := tx.Prefetch(ids...); err != nil {
					return err
				}
			}
			for _, id := range ids {
				if _, err := tx.Read(id); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, tc := range []struct {
		name     string
		prefetch bool
	}{
		{"serial", false},
		{"prefetch", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rt := c.Runtime(1, dtm.Config{Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := audit(rt, i, tc.prefetch); err != nil {
					b.Fatal(err)
				}
			}
			snap := rt.Metrics().Snapshot()
			b.ReportMetric(float64(snap.RemoteReads)/float64(b.N), "rounds/tx")
		})
	}
}

// BenchmarkPrefetchTransferTCP runs the full Bank transfer through the
// executor on TCP with the UnitGraph-driven prefetch on and off — the
// end-to-end (read phase + 2PC) view of the same optimisation.
func BenchmarkPrefetchTransferTCP(b *testing.B) {
	prog := bank.TransferProgram()
	an, err := unitgraph.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		prefetch bool
	}{
		{"serial", false},
		{"prefetch", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := cluster.NewTCP(cluster.Config{Servers: 4, StatsWindow: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.Seed(bank.New(bank.Config{Branches: 8, Accounts: 64}).SeedObjects())
			rt := c.Runtime(1, dtm.Config{Seed: 1})
			exec := acn.NewExecutor(rt, an, acn.Flat(an))
			exec.SetPrefetch(tc.prefetch)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params := map[string]any{
					"srcBranch": i % 8, "dstBranch": (i + 1) % 8,
					"srcAcct": i % 64, "dstAcct": (i + 1) % 64,
					"amount": 1,
				}
				if err := exec.Execute(ctx, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeValueRead measures read-only transactions over 16 KiB
// values, where every read-quorum member ships the value back.
func BenchmarkLargeValueRead(b *testing.B) {
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	defer c.Close()
	big := make(store.Bytes, 16<<10)
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < 64; i++ {
		objs[store.ID("blob", i)] = big
	}
	c.Seed(objs)
	rt := c.Runtime(1, dtm.Config{Seed: 1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			_, err := tx.Read(store.ID("blob", i%64))
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
