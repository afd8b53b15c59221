// Observability: read the abort causes and recomposition decisions behind an
// adaptive run, follow one transaction's distributed spans across client and
// servers, persist the learned Block sequence, and warm-start a "restarted"
// client from it.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"qracn"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const servers = 10
	c := qracn.NewCluster(qracn.ClusterConfig{
		Servers:       servers,
		Network:       qracn.NetworkConfig{Latency: 50 * time.Microsecond, Seed: 1},
		StatsWindow:   150 * time.Millisecond,
		TraceCapacity: 4096, // server-side span rings
	})
	defer c.Close()

	w2 := qracn.NewBank(qracn.BankConfig{Branches: 8, Accounts: 100, HotBranches: 2})
	c.Seed(w2.SeedObjects())

	transfer := w2.Profiles()[0]
	an, err := qracn.Analyze(transfer.Program)
	if err != nil {
		return err
	}

	// A tracer on the runtime records one span tree per transaction
	// (TraceSample 1); the runtime's forensics recorder attributes every
	// abort and audits every recomposition the hub decides.
	tracer := qracn.NewTracer(4096)
	rt := c.Runtime(1, qracn.RuntimeConfig{Seed: 7, Tracer: tracer, TraceSample: 1})
	exec := qracn.NewExecutor(rt, an, qracn.Static(an))
	hub := qracn.NewHub(rt, qracn.HubConfig{})
	hub.Register(exec, qracn.AlgoConfig{})

	ctx := context.Background()
	params := func(i int) map[string]any {
		return map[string]any{
			"srcBranch": i % 2, "dstBranch": (i + 1) % 2, // hot branches
			"srcAcct": i % 100, "dstAcct": (i + 37) % 100,
			"amount": 1,
		}
	}
	deadline := time.Now().Add(350 * time.Millisecond)
	n := 0
	for time.Now().Before(deadline) {
		if err := exec.Execute(ctx, params(n)); err != nil {
			return err
		}
		n++
	}
	if err := hub.RefreshOnce(ctx); err != nil {
		return err
	}

	m := rt.Metrics().Snapshot()
	fmt.Fprintf(w, "ran %d transfers; %d full and %d partial aborts by cause:\n", n, m.ParentAborts, m.SubAborts)
	for _, c := range []struct {
		cause string
		n     uint64
	}{
		{"read-validation", m.AbortsReadValidation},
		{"lock-conflict", m.AbortsLockConflict},
		{"commit-round", m.AbortsCommitRound},
		{"deadline", m.AbortsDeadline},
		{"overload", m.AbortsOverload},
	} {
		fmt.Fprintf(w, "  %-15s %d\n", c.cause, c.n)
	}
	for _, r := range rt.Forensics().Recomposes() {
		fmt.Fprintf(w, "recomposition (%s, applied %v): %s -> %s\n", r.Trigger, r.Applied, r.Before, r.After)
	}

	// Distributed tracing: pick one transaction, merge the client's spans
	// with the serve spans fetched from every node, and reassemble its
	// cross-node timeline. The same spans export losslessly as Chrome
	// trace_event JSON (chrome://tracing, Perfetto) — qracn-inspect trace
	// renders either form from a live cluster or a JSON file.
	ids := qracn.TraceIDs(tracer.Spans())
	if len(ids) == 0 {
		return fmt.Errorf("no traces recorded")
	}
	var nodes []qracn.NodeID
	for i := 0; i < servers; i++ {
		nodes = append(nodes, qracn.NodeID(i))
	}
	spans, err := rt.FetchSpans(ctx, nodes, ids[0])
	if err != nil {
		return err
	}
	roots := qracn.AssembleTrace(spans, ids[0])
	serverSpans := 0
	for _, s := range spans {
		if s.Site != "client-1" {
			serverSpans++
		}
	}
	fmt.Fprintf(w, "\ntrace %s: %d spans (%d from servers), %d root(s)\n",
		ids[0], len(spans), serverSpans, len(roots))
	chrome, err := qracn.ChromeTrace(spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "chrome trace export: %d bytes of JSON\n", len(chrome))

	// Persist the adapted composition...
	adapted := exec.Composition()
	blob, err := adapted.Encode(an)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nadapted composition %s persisted as %d bytes of JSON\n", adapted, len(blob))

	// ...and warm-start a fresh client from it: no monitoring interval
	// needed before it runs the adapted sequence.
	restored, err := qracn.LoadComposition(an, blob)
	if err != nil {
		return err
	}
	rt2 := c.Runtime(2, qracn.RuntimeConfig{Seed: 8})
	exec2 := qracn.NewExecutor(rt2, an, restored)
	if err := exec2.Execute(ctx, params(0)); err != nil {
		return err
	}
	fmt.Fprintf(w, "restarted client warm-started with %s\n", exec2.Composition())

	// Typed read-back through the generic helper.
	total, err := qracn.Result(ctx, rt2, func(tx *qracn.Tx) (int64, error) {
		var sum int64
		for i := 0; i < 8; i++ {
			v, err := tx.Read(qracn.ID("branch", i))
			if err != nil {
				return 0, err
			}
			sum += qracn.AsInt64(v)
		}
		return sum, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "branch total after %d transfers: %d (conserved)\n", n+1, total)
	return nil
}
