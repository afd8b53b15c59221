package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/wal"
	"qracn/internal/wire"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
)

// microBenchTime is how long testing.Benchmark runs each microbenchmark.
// Some forty of them run inside every traced run, whose wall time the
// driver caps, so each gets tens of milliseconds: enough for thousands of
// iterations of the nanosecond-scale ones and a handful of fsyncs.
const microBenchTime = "40ms"

// sink defeats dead-code elimination of the measured calls.
var sink any

// microBench is one layer microbenchmark over public functions only.
type microBench struct {
	// ns and allocs name the metrics that take ns/op (scaled by div: 1 for
	// ns, 1e3 for us, 1e6 for ms) and allocs/op; either may be empty.
	ns     string
	div    float64
	allocs string
	run    func(b *testing.B)
}

// runMicro runs every layer microbenchmark and returns the per-layer metric
// values they define. tmpDir hosts the WAL the wal benchmarks append to;
// benchTime is testing's -benchtime for each of them.
func runMicro(tmpDir, benchTime string) (map[string]float64, error) {
	if err := flag.Set("test.benchtime", benchTime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var failed error
	fail := func(err error) {
		if failed == nil {
			failed = err
		}
	}
	ctx := context.Background()

	// ---- wire -----------------------------------------------------------
	reads := make([]store.ReadDesc, 8)
	for i := range reads {
		reads[i] = store.ReadDesc{ID: store.ID("stock", 0, i), Version: uint64(i + 1)}
	}
	writes := make([]store.WriteDesc, 4)
	for i := range writes {
		writes[i] = store.WriteDesc{ID: reads[i].ID, Value: store.Tuple{store.Int64(7), store.Int64(9)}, NewVersion: uint64(i + 2), Block: i}
	}
	readReq := &wire.Request{Kind: wire.KindRead, TxID: "c1-t42-a0",
		Read: &wire.ReadRequest{Object: store.ID("district", 0, 1), Validate: reads}}
	prepareReq := &wire.Request{Kind: wire.KindPrepare, TxID: "c1-t42-a0",
		Prepare: &wire.PrepareRequest{Reads: reads, Writes: writes, Quorum: []quorum.NodeID{0, 1, 2, 4, 5, 7, 8}}}
	batch := &wire.BatchRequest{}
	for i := 0; i < 8; i++ {
		batch.Subs = append(batch.Subs, &wire.Request{Kind: wire.KindRead, TxID: "c1-t42-a0",
			Read: &wire.ReadRequest{Object: reads[i].ID}})
	}
	batchReq := &wire.Request{Kind: wire.KindBatch, TxID: "c1-t42-a0", Batch: batch}
	var benches []microBench
	for _, m := range []struct {
		name string
		req  *wire.Request
	}{{"read_req", readReq}, {"prepare_req", prepareReq}, {"batch_req", batchReq}} {
		env := &wire.Envelope{Seq: 7, Req: m.req}
		payload, err := wire.AppendEnvelope(nil, env)
		if err != nil {
			return nil, fmt.Errorf("micro: encode %s: %w", m.name, err)
		}
		if m.name != "batch_req" {
			out["wire.frame_bytes."+m.name] = float64(len(payload))
		}
		enc := microBench{ns: "wire.encode_ns." + m.name, div: 1, run: func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = wire.AppendEnvelope(buf[:0], env)
			}
			sink = buf
		}}
		dec := microBench{ns: "wire.decode_ns." + m.name, div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := wire.DecodeEnvelope(payload)
				if err != nil {
					b.Fatal(err)
				}
				sink = e
			}
		}}
		if m.name == "read_req" {
			enc.allocs, dec.allocs = "wire.encode_allocs.read_req", "wire.decode_allocs.read_req"
		}
		benches = append(benches, enc, dec)
	}

	// ---- transport: one echo round trip, no simulated latency -----------
	echo := func(context.Context, *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK, Read: &wire.ReadResponse{Value: store.Int64(1), Version: 3}}
	}
	chanNet := transport.NewChannelNetwork(transport.ChannelConfig{Seed: 1, Codec: wire.Binary})
	chanNet.Register(0, echo)
	defer chanNet.Close()
	roundTrip := func(cl transport.Client) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp, err := cl.Call(ctx, 0, readReq)
				if err != nil {
					b.Fatal(err)
				}
				sink = resp
			}
		}
	}
	benches = append(benches, microBench{ns: "transport.roundtrip_us.channel", div: 1e3,
		allocs: "transport.roundtrip_allocs.channel", run: roundTrip(chanNet)})
	tcpSrv := transport.NewTCPServer(echo, false)
	if addr, err := tcpSrv.Listen("127.0.0.1:0"); err != nil {
		// No loopback in this sandbox: the two TCP numbers read 0 rather
		// than failing a run whose workloads never touch TCP.
		fmt.Fprintf(os.Stderr, "micro: tcp round trip skipped: %v\n", err)
		out["transport.roundtrip_us.tcp"], out["transport.roundtrip_allocs.tcp"] = 0, 0
	} else {
		tcpCl := transport.NewTCPClient(map[quorum.NodeID]string{0: addr}, false)
		defer tcpSrv.Close()
		defer tcpCl.Close()
		benches = append(benches, microBench{ns: "transport.roundtrip_us.tcp", div: 1e3,
			allocs: "transport.roundtrip_allocs.tcp", run: roundTrip(tcpCl)})
	}

	// ---- store ----------------------------------------------------------
	st := store.New()
	seed := map[store.ObjectID]store.Value{}
	ids := make([]store.ObjectID, 1024)
	for i := range ids {
		ids[i] = store.ID("obj", i)
		seed[ids[i]] = store.Tuple{store.Int64(int64(i)), store.Int64(0)}
	}
	st.SeedBatch(seed)
	validate := make([]store.ReadDesc, 8)
	for i := range validate {
		validate[i] = store.ReadDesc{ID: ids[i], Version: 1}
	}
	benches = append(benches,
		microBench{ns: "store.get_ns", div: 1, allocs: "store.get_allocs", run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, _, err := st.Get(ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				sink = v
			}
		}},
		microBench{ns: "store.validate_ns", div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = st.Validate(validate)
			}
		}},
		microBench{ns: "store.protect_apply_ns", div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if err := st.Protect(id, "tx", false); err != nil {
					b.Fatal(err)
				}
				if err := st.Apply(store.WriteDesc{ID: id, Value: store.Int64(1), NewVersion: uint64(i + 2)}, "tx"); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// ---- wal: one record per append, default group-commit window ----------
	walDir, err := os.MkdirTemp(tmpDir, "micro-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	log, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("micro: open wal: %w", err)
	}
	defer log.Close()
	rec := wal.Record{TxID: "c1-t42-a0", Key: ids[0], Version: 2, Value: store.Tuple{store.Int64(7), store.Int64(9)}}
	benches = append(benches, microBench{ns: "wal.append_ms_serial", div: 1e6, run: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := log.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}})
	var batched struct{ appends, fsyncs uint64 }
	benches = append(benches, microBench{run: func(b *testing.B) {
		const appenders = 8
		before := log.Stats()
		var wg sync.WaitGroup
		for g := 0; g < appenders; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := log.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			}((b.N + appenders - 1) / appenders)
		}
		wg.Wait()
		after := log.Stats()
		// The last call is the one that ran the full bench time.
		batched.appends, batched.fsyncs = after.Appends-before.Appends, after.Fsyncs-before.Fsyncs
	}})

	// ---- server: one volatile node, handlers called directly --------------
	node := server.NewNode(0, server.Config{StatsWindow: time.Hour})
	txSeq := 0
	node.Store().SeedBatch(seed)
	benches = append(benches,
		microBench{ns: "server.handle_read_ns", div: 1, run: func(b *testing.B) {
			req := &wire.Request{Kind: wire.KindRead, TxID: "c1-t1-a0", Read: &wire.ReadRequest{Validate: validate}}
			for i := 0; i < b.N; i++ {
				req.Read.Object = ids[8+i%(len(ids)-8)]
				if resp := node.Handle(ctx, req); resp.Status != wire.StatusOK {
					b.Fatal(resp.Detail)
				}
			}
		}},
		microBench{ns: "server.handle_prepare_decide_ns", div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				ver, _ := node.Store().Version(id)
				w := []store.WriteDesc{{ID: id, Value: store.Int64(1), NewVersion: ver + 1}}
				// testing.Benchmark calls run several times; a node refuses to
				// prepare a transaction id it has already decided.
				txSeq++
				txid := fmt.Sprintf("c1-t%d-a0", txSeq)
				resp := node.Handle(ctx, &wire.Request{Kind: wire.KindPrepare, TxID: txid,
					Prepare: &wire.PrepareRequest{Reads: []store.ReadDesc{{ID: id, Version: ver}}, Writes: w, Quorum: []quorum.NodeID{0}}})
				if resp.Prepare == nil || !resp.Prepare.Vote {
					b.Fatalf("prepare refused: %+v", resp)
				}
				resp = node.Handle(ctx, &wire.Request{Kind: wire.KindDecision, TxID: txid,
					Decision: &wire.DecisionRequest{Commit: true, Writes: w, Release: []store.ObjectID{id}}})
				if resp.Status != wire.StatusOK {
					b.Fatal(resp.Detail)
				}
			}
		}},
	)

	// ---- quorum, shard ----------------------------------------------------
	tree := quorum.NewTree(numServers, treeDegree)
	smap := shard.NewUniform(numServers, 4, treeDegree)
	benches = append(benches,
		microBench{ns: "quorum.read_quorum_ns", div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := tree.ReadQuorum(i, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink = q
			}
		}},
		microBench{ns: "quorum.write_quorum_ns", div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := tree.WriteQuorum(i, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink = q
			}
		}},
		microBench{ns: "shard.partition_ns", div: 1, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = smap.Partition(ids[i%512 : i%512+8])
			}
		}},
	)

	// ---- dtm, acn: uncontended transactions on a zero-latency cluster ----
	c := cluster.New(cluster.Config{Servers: numServers, Degree: treeDegree, StatsWindow: time.Hour,
		Network: transport.ChannelConfig{Seed: 1, Codec: wire.Binary}})
	defer c.Close()
	c.Seed(seed)
	bankCfg := bank.Config{Branches: 8, Accounts: 64}
	c.Seed(bank.New(bankCfg).SeedObjects())
	rt := c.Runtime(1, dtm.Config{Seed: 1})
	benches = append(benches,
		microBench{ns: "dtm.read_tx_us", div: 1e3, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
					_, err := tx.Read(id)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		microBench{ns: "dtm.rmw_tx_us", div: 1e3, allocs: "dtm.rmw_tx_allocs", run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
					if _, err := tx.Read(id); err != nil {
						return err
					}
					return tx.Write(id, store.Int64(int64(i)))
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)
	transferAn, err := unitgraph.Analyze(bank.TransferProgram())
	if err != nil {
		return nil, err
	}
	var flatNS, nestedNS float64
	execute := func(comp *acn.Composition, into *float64) microBench {
		exec := acn.NewExecutor(rt, transferAn, comp)
		return microBench{run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				params := map[string]any{
					"srcBranch": i % 8, "dstBranch": (i + 1) % 8,
					"srcAcct": i % 64, "dstAcct": (i + 1) % 64, "amount": 1,
				}
				if err := exec.Execute(ctx, params); err != nil {
					b.Fatal(err)
				}
			}
			*into = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		}}
	}
	benches = append(benches, execute(acn.Flat(transferAn), &flatNS), execute(acn.Static(transferAn), &nestedNS))

	newOrderProg := tpcc.NewOrderProgram()
	newOrderAn, err := unitgraph.Analyze(newOrderProg)
	if err != nil {
		return nil, err
	}
	alg := acn.NewAlgorithm(newOrderAn, acn.AlgoConfig{})
	benches = append(benches,
		microBench{ns: "acn.recompose_us", div: 1e3, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = alg.Recompose(func(anchor int) float64 { return float64((anchor*7 + i) % 13) })
			}
		}},
		microBench{ns: "unitgraph.analyze_us", div: 1e3, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an, err := unitgraph.Analyze(newOrderProg)
				if err != nil {
					b.Fatal(err)
				}
				sink = an
			}
		}},
	)

	for _, mb := range benches {
		run := mb.run
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			run(b)
		})
		if r.N == 0 {
			fail(fmt.Errorf("micro: benchmark %s%s failed", mb.ns, mb.allocs))
			continue
		}
		if mb.ns != "" {
			out[mb.ns] = float64(r.T.Nanoseconds()) / float64(r.N) / mb.div
		}
		if mb.allocs != "" {
			out[mb.allocs] = float64(r.AllocsPerOp())
		}
	}
	out["wal.appends_per_fsync_8"] = ratio(float64(batched.appends), float64(batched.fsyncs))
	out["acn.nesting_overhead_ratio"] = ratio(nestedNS, flatNS)
	return out, failed
}
