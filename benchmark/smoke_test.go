package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload in both modes for a fraction of a second and
// asserts the contract a full run is held to: every name in BENCHMARK.json is
// emitted exactly once per workload (metricSet refuses unknown, repeated and
// missing names), no call fails, every invariant holds (the durable
// workload's after a crash-restart of all nodes too), the traced pass's self
// times add up, and the volatile workloads never touch the WAL.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	b := smokeBench(spec, t.TempDir())
	for _, decl := range spec.Workloads {
		w, ok := workloadByName(decl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the program", decl.Name)
		}
		e2e, err := b.runEndToEnd(context.Background(), w, 1)
		if err != nil {
			t.Fatalf("%s end to end: %v", w.name, err)
		}
		layers, err := b.runLayers(context.Background(), w, 1)
		if err != nil {
			t.Fatalf("%s per layer: %v", w.name, err)
		}
		for _, r := range []*runResult{e2e, layers} {
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.correct, r.attempted, r.failed)
			}
		}
		if got, want := len(e2e.metrics.values), len(spec.EndToEnd); got != want {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, got, want)
		}
		if got, want := len(layers.metrics.values), len(spec.PerLayer); got != want {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, got, want)
		}
		for name, v := range e2e.metrics.values {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.name, name, v.Value)
			}
		}
		// max_batch and not a per-commit ratio: the durable workload may
		// commit nothing inside a measured window this short.
		walOn := layers.metrics.values["wal.max_batch"].Value > 0
		if walOn != w.durable {
			t.Errorf("%s: wal.max_batch > 0 is %v, durable is %v", w.name, walOn, w.durable)
		}
		if rec := layers.metrics.values["wal.recovery_ms"].Value; (rec > 0) != w.durable {
			t.Errorf("%s: wal.recovery_ms = %v, durable is %v", w.name, rec, w.durable)
		}
		if _, err := os.Stat(filepath.Join(b.outDir, w.name+".trace.json")); err != nil {
			t.Errorf("%s: trace not written: %v", w.name, err)
		}
	}
}

// Every metric and workload the benchmark defines must be documented.
func TestReadmeNamesEverything(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !strings.Contains(string(readme), "`"+n+"`") {
			t.Errorf("README.md does not define `%s`", n)
		}
	}
}
