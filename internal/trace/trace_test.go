package trace_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/trace"
)

func TestRingWrapsKeepingNewest(t *testing.T) {
	r := trace.NewRing[string](3)
	for i := 0; i < 7; i++ {
		r.Record(fmt.Sprintf("t%d", i))
	}
	if got := r.Snapshot(); !slices.Equal(got, []string{"t4", "t5", "t6"}) {
		t.Fatalf("ring holds %v, want the newest 3 oldest first", got)
	}
	if r.Recorded() != 7 {
		t.Fatalf("Recorded = %d, want 7", r.Recorded())
	}
}

// TestNilAndDisabledTracer: a nil Tracer is inert, and a runtime carrying a
// tracer with sampling off (TraceSample < 0) records no span.
func TestNilAndDisabledTracer(t *testing.T) {
	var nilTr *trace.Tracer
	nilTr.RecordSpan(trace.Span{Trace: "x"}) // must not panic
	if nilTr.Spans() != nil || nilTr.SpansFor("x") != nil {
		t.Fatal("nil tracer should be inert")
	}
	tr := trace.New(4)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	rt := c.Runtime(1, dtm.Config{Seed: 1, Tracer: tr, TraceSample: -1})
	if err := rt.Atomic(t.Context(), func(tx *dtm.Tx) error {
		return tx.Write("a", store.Int64(1))
	}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("unsampled runtime recorded %d spans: %v", len(got), got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := trace.New(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.RecordSpan(trace.Span{Trace: fmt.Sprintf("t%d", i), ID: trace.NextSpanID()})
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	trace.New(0)
}

// TestRuntimeIntegration verifies the DTM runtime records the expected span
// tree for a simple read-modify-write commit: read and commit under
// attempt-0, under tx, in the order they ended.
func TestRuntimeIntegration(t *testing.T) {
	tr := trace.New(32)
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(1)})
	rt := c.Runtime(1, dtm.Config{Seed: 1, Tracer: tr})

	if err := rt.Atomic(t.Context(), func(tx *dtm.Tx) error {
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		return tx.Write("a", store.Int64(store.AsInt64(v)+1))
	}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var got []string
	for _, s := range spans {
		got = append(got, s.Name+"("+s.Detail+")")
	}
	want := []string{"read(a)", "commit(committed)", "attempt-0(committed)", "tx(committed)"}
	if !slices.Equal(got, want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
	read, commit, attempt, tx := spans[0], spans[1], spans[2], spans[3]
	if read.Parent != attempt.ID || commit.Parent != attempt.ID || attempt.Parent != tx.ID || tx.Parent != 0 {
		t.Fatalf("parentage wrong: %+v", spans)
	}
}
