package main

import (
	"fmt"
	"sort"
	"time"

	"qracn/internal/quorum"
)

// selfSumTolerance is how far the per-level self times of the traced
// transactions may depart from the transactions' own span time before the
// traced pass is refused: a larger gap means spans leak out of their parents
// and the per-layer shares no longer describe where the time went.
const selfSumTolerance = 0.05

// traceStats is what the spans of one traced pass say about the layers.
type traceStats struct {
	commits   int
	txMS      []float64            // committed tx spans, sorted
	refreshMS []float64            // refresh spans, sorted
	callMS    map[string][]float64 // rpc.<kind> and serve.<kind> durations, sorted
	netSelfMS []float64            // per rpc: call time minus its handler's time, sorted
	holdMS    []float64            // per node and attempt: prepare start to decision end, sorted

	rpcErrors   int
	txRPCs      int // messages sent on behalf of committed transactions
	wastedRPCs  int // of those, sent by an attempt other than the committing one
	lockReplies int // read, batch and prepare replies
	busyReplies int // of those, refusing a protected object
	bytes       int64
	groupsSum   int // quorum groups prepared, summed over committed read-write transactions
	groupsTx    int

	// Level self times summed over committed transactions (ns): time with no
	// call outstanding, time with a call outstanding but no handler running,
	// time with a handler running; and the transactions' own span time.
	txSelf, netSelf, serveSelf, txTotal int64
	serveBusy                           int64 // all handler time in the window
}

// intersectLength is |∪a ∩ ∪b|, by inclusion–exclusion over union lengths.
func intersectLength(a, b []interval) int64 {
	both := append(append(make([]interval, 0, len(a)+len(b)), a...), b...)
	return unionLength(a, nil) + unionLength(b, nil) - unionLength(both, nil)
}

// levelSelf is the time the parents cover that the children do not.
func levelSelf(parents, children []interval) int64 {
	return unionLength(parents, nil) - intersectLength(parents, children)
}

func analyzeTrace(res *passResult) *traceStats {
	st := &traceStats{callMS: map[string][]float64{}}
	spans := res.spans
	inWindow := func(s *span) bool { return s.end >= res.winFrom && s.end < res.winTo }

	var maxID uint64
	for i := range spans {
		if spans[i].id > maxID {
			maxID = spans[i].id
		}
	}
	children := make([][]int32, maxID+1)
	for i := range spans {
		if p := spans[i].parent; p != 0 && p <= maxID {
			children[p] = append(children[p], int32(i))
		}
	}

	type holdKey struct {
		node int
		txid string
	}
	prepared := map[holdKey]int64{}
	for i := range spans {
		s := &spans[i]
		if !inWindow(s) {
			continue
		}
		durMS := float64(s.dur()) / 1e6
		switch {
		case s.name == "tx":
			// handled below, with its subtree
		case s.name == "refresh":
			st.refreshMS = append(st.refreshMS, durMS)
		case s.name[:4] == "rpc.":
			st.callMS[s.name] = append(st.callMS[s.name], durMS)
			st.bytes += int64(s.bytes)
			if s.failed {
				st.rpcErrors++
			}
			if kids := children[s.id]; len(kids) > 0 {
				handlers := make([]*span, len(kids))
				for i, ci := range kids {
					handlers[i] = &spans[ci]
				}
				st.netSelfMS = append(st.netSelfMS, float64(selfTime(s, handlers))/1e6)
			}
		default: // serve.<kind>
			st.callMS[s.name] = append(st.callMS[s.name], durMS)
			st.serveBusy += s.dur()
			if s.name == "serve.read" || s.name == "serve.batch" || s.name == "serve.prepare" {
				st.lockReplies++
				if s.busy {
					st.busyReplies++
				}
			}
			if s.name == "serve.prepare" && s.vote {
				prepared[holdKey{s.node, s.txid}] = s.start
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.name != "serve.decision" || !inWindow(s) {
			continue
		}
		if start, ok := prepared[holdKey{s.node, s.txid}]; ok {
			st.holdMS = append(st.holdMS, float64(s.end-start)/1e6)
		}
	}

	for i := range spans {
		t := &spans[i]
		if t.name != "tx" || t.failed || !inWindow(t) {
			continue
		}
		st.commits++
		st.txMS = append(st.txMS, float64(t.dur())/1e6)
		st.txTotal += t.dur()

		var rpcs, serves []interval
		attempts := make([]int, len(children[t.id])) // per call; -1 outside a transaction
		final := -1                                  // the committing attempt is the last one
		for i, ri := range children[t.id] {
			r := &spans[ri]
			rpcs = append(rpcs, interval{r.start, r.end})
			for _, si := range children[r.id] {
				serves = append(serves, interval{spans[si].start, spans[si].end})
			}
			attempts[i] = -1
			if ref, ok := parseTxID(r.txid); ok {
				attempts[i] = ref.attempt
				final = max(final, ref.attempt)
			}
		}
		groups := map[int]bool{}
		for i, ri := range children[t.id] {
			switch r := &spans[ri]; {
			case attempts[i] < 0:
				continue
			case attempts[i] != final:
				st.wastedRPCs++
			case r.name == "rpc.prepare":
				groups[res.groupsOfNodes(quorum.NodeID(r.node))] = true
			}
			st.txRPCs++
		}
		if len(groups) > 0 {
			st.groupsSum += len(groups)
			st.groupsTx++
		}
		st.txSelf += levelSelf([]interval{{t.start, t.end}}, rpcs)
		st.netSelf += levelSelf(rpcs, serves)
		st.serveSelf += unionLength(serves, nil)
	}

	sort.Float64s(st.txMS)
	sort.Float64s(st.refreshMS)
	sort.Float64s(st.netSelfMS)
	sort.Float64s(st.holdMS)
	for _, v := range st.callMS {
		sort.Float64s(v)
	}
	return st
}

// selfSumRatio is the level self times over the transactions' span time;
// 1 means every span lies inside its parent and the shares add up (as they
// trivially do when no transaction committed inside the window).
func (st *traceStats) selfSumRatio() float64 {
	if st.txTotal == 0 {
		return 1
	}
	return float64(st.txSelf+st.netSelf+st.serveSelf) / float64(st.txTotal)
}

func (st *traceStats) checkSelfSum() error {
	if r := st.selfSumRatio(); r < 1-selfSumTolerance || r > 1+selfSumTolerance {
		return fmt.Errorf("traced pass: self times sum to %.3f of the tx span time (must be within %.0f %%)", r, selfSumTolerance*100)
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// emitLayers fills the per-layer metric set from the three passes of a
// traced run: traced (wrappers on: everything derived from spans), ref (the
// same QR-ACN load with the wrappers off: counters and process cost) and
// flat (QR-DTM on the same inputs), plus the layer microbenchmarks.
func emitLayers(out *metricSet, traced, ref, flat *passResult, st *traceStats, micro map[string]float64) {
	c := ref.counters
	commits := float64(c.Commits)
	tcommits := float64(st.commits)

	// acn
	out.set("acn.execute_ms_p50", percentile(st.txMS, 0.50))
	out.set("acn.blocks_per_tx", ref.blocksPerTx)
	out.set("acn.recompositions", float64(ref.recomposes))
	out.set("acn.refresh_ms_p50", percentile(st.refreshMS, 0.50))
	out.set("acn.partial_abort_ratio", ratio(float64(c.SubAborts), float64(c.SubAborts+c.ParentAborts)))
	out.set("acn.speedup_vs_flat", ratio(ref.tps(), flat.tps()))

	// dtm
	aborts := float64(c.AbortsReadValidation + c.AbortsLockConflict + c.AbortsCommitRound + c.AbortsDeadline + c.AbortsOverload)
	out.set("dtm.attempts_per_commit", ratio(float64(c.Commits+c.ParentAborts), commits))
	out.set("dtm.rpcs_per_commit", ratio(float64(st.txRPCs), tcommits))
	out.set("dtm.read_rounds_per_commit", ratio(float64(c.RemoteReads), commits))
	out.set("dtm.wasted_rpc_share", ratio(float64(st.wastedRPCs), float64(st.txRPCs)))
	out.set("dtm.busy_backoffs_per_commit", ratio(float64(c.BusyBackoffs), commits))
	out.set("dtm.idle_share", ratio(float64(st.txSelf), float64(st.txTotal)))
	out.set("dtm.abort_share.lock_conflict", ratio(float64(c.AbortsLockConflict), aborts))
	out.set("dtm.abort_share.read_validation", ratio(float64(c.AbortsReadValidation), aborts))
	out.set("dtm.abort_share.block0", ratio(float64(c.AbortsBlock0), aborts))
	out.set("dtm.read_ms_p50", ms(ref.stages.Read.Quantile(0.50)))
	out.set("dtm.prepare_ms_p50", ms(ref.stages.Prepare.Quantile(0.50)))
	out.set("dtm.commit_ms_p50", ms(ref.stages.Commit.Quantile(0.50)))
	out.set("dtm.commit_ms_p99", ms(ref.stages.Commit.Quantile(0.99)))
	out.set("dtm.tx_latency_p99_ms", percentile(ref.latencyMS, 0.99))
	for _, prof := range []string{"transfer", "balance"} {
		var lat []float64
		for i, name := range ref.profileNames {
			if name == prof {
				lat = ref.byProfile[i]
			}
		}
		out.set("dtm.tx_latency_p50_ms."+prof, percentile(lat, 0.50))
	}
	out.set("dtm.cross_shard_ratio", ratio(float64(c.CrossShardCommits), commits))

	// transport and server
	for _, kind := range []string{"read", "batch", "prepare", "decision"} {
		out.set("transport.call_ms_p50."+kind, percentile(st.callMS["rpc."+kind], 0.50))
	}
	for _, kind := range []string{"prepare", "decision"} {
		out.set("transport.call_ms_p99."+kind, percentile(st.callMS["rpc."+kind], 0.99))
		out.set("server.handle_ms_p99."+kind, percentile(st.callMS["serve."+kind], 0.99))
	}
	for _, kind := range []string{"read", "batch", "prepare", "decision", "stats", "repair"} {
		out.set("transport.calls_per_commit."+kind, ratio(float64(len(st.callMS["rpc."+kind])), tcommits))
	}
	out.set("transport.net_self_ms_p50", percentile(st.netSelfMS, 0.50))
	out.set("transport.errors_per_commit", ratio(float64(st.rpcErrors), tcommits))
	for _, kind := range []string{"read", "prepare", "decision"} {
		out.set("server.handle_ms_p50."+kind, percentile(st.callMS["serve."+kind], 0.50))
	}
	out.set("server.protect_hold_ms_p50", percentile(st.holdMS, 0.50))
	out.set("server.protect_hold_ms_p99", percentile(st.holdMS, 0.99))
	out.set("server.busy_reply_share", ratio(float64(st.busyReplies), float64(st.lockReplies)))
	out.set("server.busy_cores", ratio(float64(st.serveBusy), float64(traced.window)))

	// wal: counters of the untraced pass; zero on volatile workloads.
	out.set("wal.fsyncs_per_commit", ratio(float64(ref.wal.Fsyncs), commits))
	out.set("wal.appends_per_commit", ratio(float64(ref.wal.Appends), commits))
	out.set("wal.appends_per_fsync", ratio(float64(ref.wal.Appends), float64(ref.wal.Fsyncs)))
	out.set("wal.max_batch", float64(ref.walMaxBatch))
	out.set("wal.fsync_wait_ms_p50", ms(ref.fsyncWait.P50))
	out.set("wal.fsync_wait_ms_p99", ms(ref.fsyncWait.P99))
	out.set("wal.bytes_per_commit", ratio(float64(ref.walBytes), float64(ref.acked)))
	out.set("wal.recovery_ms", ref.recoveryMS)

	// wire, quorum, shard
	out.set("wire.bytes_per_commit", ratio(float64(st.bytes), tcommits))
	reads := len(st.callMS["rpc.read"]) + len(st.callMS["rpc.batch"])
	out.set("quorum.nodes_per_read", ratio(float64(reads), float64(traced.counters.RemoteReads)))
	out.set("shard.groups_per_commit", ratio(float64(st.groupsSum), float64(st.groupsTx)))

	// cluster: process cost of the untraced pass.
	out.set("cluster.cpu_cores", ratio(ref.cost.cpu.Seconds(), ref.cost.wall.Seconds()))
	out.set("cluster.cpu_ms_per_commit", ratio(ms(ref.cost.cpu), commits))
	out.set("cluster.allocs_per_commit", ratio(float64(ref.cost.mallocs), commits))
	out.set("cluster.peak_rss_mb", ref.peakRSSMB)
	out.set("cluster.gc_pause_ms", ms(ref.cost.gcPause))
	out.set("cluster.steal_pct", 100*ref.stolenShare())
	out.set("cluster.trace_overhead_pct", 100*ratio(ref.tps()-traced.tps(), ref.tps()))

	for name, v := range micro {
		out.set(name, v)
	}
}
