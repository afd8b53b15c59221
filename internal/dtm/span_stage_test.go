package dtm_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/trace"
)

// TestSpansAndStagesAreOneMeasurement: a read, prefetch or commit span and
// its stage histogram sample come from one timing, so the same transactions
// leave the same stage counts whether or not they are sampled, and a sampled
// runtime records one span per sample.
func TestSpansAndStagesAreOneMeasurement(t *testing.T) {
	run := func(tracer *trace.Tracer) *dtm.Runtime {
		c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
		t.Cleanup(c.Close)
		seed := map[store.ObjectID]store.Value{}
		for _, id := range []store.ObjectID{"a", "b", "c", "d", "e"} {
			seed[id] = store.Int64(1)
		}
		c.Seed(seed)
		rt := c.Runtime(1, dtm.Config{Seed: 2, Tracer: tracer, TraceSample: 1})
		ctx := context.Background()
		for i := 0; i < 10; i++ {
			if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
				if err := tx.Prefetch("a", "b"); err != nil {
					return err
				}
				if _, err := tx.Read("a"); err != nil {
					return err
				}
				if _, err := tx.Read("c"); err != nil {
					return err
				}
				return tx.Sub(func(s *dtm.Tx) error {
					v, err := s.Read("d")
					if err != nil {
						return err
					}
					return s.Write("d", store.Int64(store.AsInt64(v)+1))
				})
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := dtm.Result(ctx, rt, func(tx *dtm.Tx) (store.Value, error) { return tx.Read("e") }); err != nil {
				t.Fatal(err)
			}
		}
		return rt
	}
	tracer := trace.New(4096)
	sampled, unsampled := run(tracer), run(nil)

	spans := map[string]uint64{}
	for _, s := range tracer.Spans() {
		spans[s.Name]++
	}
	for _, stage := range []struct {
		span      string
		got, want uint64
	}{
		{"read", sampled.Stages().Read.Count(), unsampled.Stages().Read.Count()},
		{"prefetch", sampled.Stages().PrefetchBatch.Count(), unsampled.Stages().PrefetchBatch.Count()},
		{"commit", sampled.Stages().Commit.Count(), unsampled.Stages().Commit.Count()},
	} {
		if stage.got == 0 || stage.got != stage.want {
			t.Errorf("%s stage: %d samples sampled, %d unsampled; want the same, nonzero", stage.span, stage.got, stage.want)
		}
		if spans[stage.span] != stage.got {
			t.Errorf("%d %s spans for %d %s stage samples", spans[stage.span], stage.span, stage.got, stage.span)
		}
	}
}
