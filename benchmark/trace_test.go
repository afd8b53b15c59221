package main

import (
	"math"
	"testing"

	"qracn/internal/quorum"
)

func TestParseTxID(t *testing.T) {
	ref, ok := parseTxID("c2-t417-a3")
	if !ok || ref.client != 2 || ref.seq != 417 || ref.attempt != 3 || ref.key() != "c2-t417" {
		t.Errorf("parseTxID(c2-t417-a3) = %+v, %v", ref, ok)
	}
	for _, bad := range []string{"", "c2-t417", "c2-t417-a", "x2-t417-a3", "c2-t417-a3-b1", "c-t1-a0", "c2-tx-a0", "stats", "c2-t1-a-1"} {
		if _, ok := parseTxID(bad); ok {
			t.Errorf("parseTxID(%q) accepted", bad)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := &span{start: 100, end: 200}
	// Two overlapping children cover [110,150]; one leaks past the parent's
	// end and only its inside part [190,200] counts.
	kids := []*span{{start: 110, end: 140}, {start: 130, end: 150}, {start: 190, end: 260}}
	if got := selfTime(parent, kids); got != 100-40-10 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// tracedTx builds one committed transaction: attempt 0 reads from two nodes
// in parallel and fails, attempt 1 reads, prepares and decides on node 0.
func tracedTx() *passResult {
	spans := []span{
		{id: 1, name: "tx", node: -1, start: 0, end: 1000},
		// attempt 0: two parallel reads, each 100 long with a 20-long handler
		{id: 2, parent: 1, name: "rpc.read", txid: "c1-t1-a0", node: 0, start: 100, end: 200, bytes: 50},
		{id: 3, parent: 2, name: "serve.read", txid: "c1-t1-a0", node: 0, start: 140, end: 160, busy: true},
		{id: 4, parent: 1, name: "rpc.read", txid: "c1-t1-a0", node: 1, start: 100, end: 200, bytes: 50},
		{id: 5, parent: 4, name: "serve.read", txid: "c1-t1-a0", node: 1, start: 150, end: 170},
		// attempt 1: read, prepare, decision, back to back on node 0
		{id: 6, parent: 1, name: "rpc.read", txid: "c1-t1-a1", node: 0, start: 400, end: 500, bytes: 50},
		{id: 7, parent: 6, name: "serve.read", txid: "c1-t1-a1", node: 0, start: 440, end: 460},
		{id: 8, parent: 1, name: "rpc.prepare", txid: "c1-t1-a1", node: 0, start: 500, end: 600, bytes: 80},
		{id: 9, parent: 8, name: "serve.prepare", txid: "c1-t1-a1", node: 0, start: 540, end: 560, vote: true},
		{id: 10, parent: 1, name: "rpc.decision", txid: "c1-t1-a1", node: 0, start: 600, end: 700, bytes: 70},
		{id: 11, parent: 10, name: "serve.decision", txid: "c1-t1-a1", node: 0, start: 640, end: 660},
		// a refresh with its stats query, outside any transaction
		{id: 12, name: "refresh", node: -1, start: 700, end: 900},
		{id: 13, parent: 12, name: "rpc.stats", node: 2, start: 710, end: 890, bytes: 30},
	}
	return &passResult{
		spans: spans, winFrom: 0, winTo: 2000,
		groupsOfNodes: func(quorum.NodeID) int { return 0 },
	}
}

func TestAnalyzeTraceLevels(t *testing.T) {
	st := analyzeTrace(tracedTx())
	if st.commits != 1 || st.txTotal != 1000 {
		t.Fatalf("commits %d, tx time %d", st.commits, st.txTotal)
	}
	// Calls cover [100,200] and [400,700]: 400 of 1000; handlers cover
	// [140,170] merged plus three of 20 each: 90.
	if st.txSelf != 600 || st.netSelf != 310 || st.serveSelf != 90 {
		t.Errorf("level self times = %d/%d/%d, want 600/310/90", st.txSelf, st.netSelf, st.serveSelf)
	}
	if r := st.selfSumRatio(); r != 1 {
		t.Errorf("self-time sum ratio = %v, want 1", r)
	}
	if err := st.checkSelfSum(); err != nil {
		t.Error(err)
	}
	if st.txRPCs != 5 || st.wastedRPCs != 2 {
		t.Errorf("rpcs %d wasted %d, want 5 and 2 (attempt 0 did not commit)", st.txRPCs, st.wastedRPCs)
	}
	if len(st.holdMS) != 1 || math.Abs(st.holdMS[0]-120e-6) > 1e-12 {
		t.Errorf("protect hold = %v, want one hold of 120 ns (prepare handler start 540 to decision handler end 660)", st.holdMS)
	}
	if st.lockReplies != 4 || st.busyReplies != 1 {
		t.Errorf("lock replies %d busy %d, want 4 and 1", st.lockReplies, st.busyReplies)
	}
	if st.groupsSum != 1 || st.groupsTx != 1 {
		t.Errorf("groups %d over %d transactions, want 1 over 1", st.groupsSum, st.groupsTx)
	}
	if got := len(st.callMS["rpc.read"]); got != 3 {
		t.Errorf("%d read calls, want 3", got)
	}
	if len(st.refreshMS) != 1 || len(st.callMS["rpc.stats"]) != 1 {
		t.Errorf("refresh spans %d, stats calls %d, want 1 and 1", len(st.refreshMS), len(st.callMS["rpc.stats"]))
	}
	if st.bytes != 50*3+80+70+30 {
		t.Errorf("bytes = %d", st.bytes)
	}
}

// A call that outlives its transaction breaks the decomposition: the level
// self times then sum to more than the transaction's span, and the traced
// pass must be refused.
func TestAnalyzeTraceDetectsLeak(t *testing.T) {
	res := tracedTx()
	res.spans[9].end = 1200 // the decision call returns after Execute did
	st := analyzeTrace(res)
	if r := st.selfSumRatio(); r <= 1+selfSumTolerance {
		t.Fatalf("self-time sum ratio = %v, want above %v", r, 1+selfSumTolerance)
	}
	if err := st.checkSelfSum(); err == nil {
		t.Error("leaking span accepted")
	}
}
