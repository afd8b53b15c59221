package dtm_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/raceflag"
	"qracn/internal/store"
	"qracn/internal/trace"
)

// allocCluster builds a zero-latency cluster (no timers on the simulated
// network, so per-transaction allocations are deterministic) seeded with a
// couple of objects.
func allocCluster(tb testing.TB) *cluster.Cluster {
	tb.Helper()
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	tb.Cleanup(c.Close)
	c.Seed(map[store.ObjectID]store.Value{
		"a": store.Int64(1),
		"b": store.Int64(1),
	})
	return c
}

// allocTx is the hot path under measurement: a read, a sub-transaction
// with a read and a write, and a 2PC commit.
func allocTx(ctx context.Context, rt *dtm.Runtime) func() {
	return func() {
		err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			if _, err := tx.Read("a"); err != nil {
				return err
			}
			return tx.Sub(func(s *dtm.Tx) error {
				v, err := s.Read("b")
				if err != nil {
					return err
				}
				return s.Write("b", store.Int64(store.AsInt64(v)+1))
			})
		})
		if err != nil {
			panic(err)
		}
	}
}

// TestDisabledTracingAddsNoAllocations is the zero-overhead acceptance
// check: a runtime carrying a tracer with span sampling disabled
// (TraceSample < 0: no transaction is sampled) allocates no more per
// transaction than a runtime with no tracer at all — the span machinery is
// guarded out of the unsampled hot path rather than paid for and discarded.
func TestDisabledTracingAddsNoAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("-race empties sync.Pools at random, so the two runtimes' counts differ by chance")
	}
	ctx := context.Background()
	// Identical clusters and identical client seeds: the two runtimes make
	// bit-identical quorum selections, so any per-op allocation difference
	// is attributable to the tracer alone.
	base := allocCluster(t).Runtime(1, dtm.Config{Seed: 2, NoRepair: true})
	eventsOnly := allocCluster(t).Runtime(1, dtm.Config{Seed: 2, NoRepair: true, Tracer: trace.New(1 << 14), TraceSample: -1})

	runBase, runEvents := allocTx(ctx, base), allocTx(ctx, eventsOnly)
	// Warm both paths (lazy maps, connection state) before measuring.
	for i := 0; i < 50; i++ {
		runBase()
		runEvents()
	}
	baseAllocs := testing.AllocsPerRun(200, runBase)
	eventAllocs := testing.AllocsPerRun(200, runEvents)
	// An unsampled span site times its stage and nothing else, so carrying
	// a tracer must not add a single allocation per transaction.
	if eventAllocs > baseAllocs {
		t.Fatalf("tracing disabled (events only) allocates %.1f/op, baseline %.1f/op — span machinery leaks into the untraced path",
			eventAllocs, baseAllocs)
	}
}

// BenchmarkAtomicUntraced is the baseline: no tracer at all.
func BenchmarkAtomicUntraced(b *testing.B) {
	ctx := context.Background()
	c := allocCluster(b)
	run := allocTx(ctx, c.Runtime(1, dtm.Config{Seed: 2}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkAtomicFullyTraced samples every transaction: the worst-case
// span-recording cost (client spans; the servers of this cluster carry no
// tracer, as on an untraced fleet).
func BenchmarkAtomicFullyTraced(b *testing.B) {
	ctx := context.Background()
	c := allocCluster(b)
	run := allocTx(ctx, c.Runtime(1, dtm.Config{Seed: 2, Tracer: trace.New(1 << 14), TraceSample: 1}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
