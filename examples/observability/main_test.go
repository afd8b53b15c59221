package main

import (
	"strings"
	"testing"
)

// TestRun executes the whole example — adaptive run and its abort and
// recomposition audit, distributed-trace fetch and Chrome export, composition persistence, warm start — and
// checks its milestones appear in the output.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"aborts by cause:",
		"recomposition (manual",
		"from servers",
		"chrome trace export:",
		"persisted as",
		"warm-started with",
		"(conserved)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
