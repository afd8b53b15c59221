package dtm_test

import (
	"context"
	"testing"

	"qracn/internal/dtm"
	"qracn/internal/raceflag"
)

// TestForensicsAddsNoAllocationsWhenConflictFree is the pay-per-conflict
// acceptance check: with forensics on (the default), a conflict-free
// transaction allocates no more than one on a runtime with forensics
// disabled — the recorder costs a nil/branch check on the abort path and
// nothing on the commit path.
func TestForensicsAddsNoAllocationsWhenConflictFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("-race empties sync.Pools at random, so the two runtimes' counts differ by chance")
	}
	ctx := context.Background()
	// Identical clusters and identical client seeds: the runtimes make
	// bit-identical quorum selections, so any per-op allocation difference is
	// attributable to the forensics recorder alone.
	off := allocCluster(t).Runtime(1, dtm.Config{Seed: 2, NoRepair: true, NoForensics: true})
	on := allocCluster(t).Runtime(1, dtm.Config{Seed: 2, NoRepair: true})

	runOff, runOn := allocTx(ctx, off), allocTx(ctx, on)
	for i := 0; i < 50; i++ {
		runOff()
		runOn()
	}
	offAllocs := testing.AllocsPerRun(200, runOff)
	onAllocs := testing.AllocsPerRun(200, runOn)
	// The rings are pre-allocated at New, so default-on forensics must not
	// add a single allocation per conflict-free transaction.
	if onAllocs > offAllocs {
		t.Fatalf("forensics on allocates %.1f/op, disabled baseline %.1f/op — event capture leaks into the conflict-free path",
			onAllocs, offAllocs)
	}
}

// BenchmarkAtomicForensicsOn pins the default configuration: forensics
// rings armed, conflict-free workload. Compare against
// BenchmarkAtomicForensicsOff to see the (required: zero) capture cost.
func BenchmarkAtomicForensicsOn(b *testing.B) {
	ctx := context.Background()
	c := allocCluster(b)
	run := allocTx(ctx, c.Runtime(1, dtm.Config{Seed: 2}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkAtomicForensicsOff is the A/B baseline with the recorder compiled
// out of the runtime (NoForensics).
func BenchmarkAtomicForensicsOff(b *testing.B) {
	ctx := context.Background()
	c := allocCluster(b)
	run := allocTx(ctx, c.Runtime(1, dtm.Config{Seed: 2, NoForensics: true}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
