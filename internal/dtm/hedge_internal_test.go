package dtm

import (
	"testing"
	"time"
)

// TestHedgeDelay: 0 disables hedging and a positive HedgeAfter is the delay
// itself; a negative one is the Read stage's p99, or 50ms before the stage
// has any sample.
func TestHedgeDelay(t *testing.T) {
	for _, c := range []struct {
		after time.Duration
		want  time.Duration
	}{{0, 0}, {5 * time.Millisecond, 5 * time.Millisecond}, {-1, 50 * time.Millisecond}} {
		rt := &Runtime{cfg: Config{HedgeAfter: c.after}}
		if got := rt.hedgeDelay(); got != c.want {
			t.Errorf("HedgeAfter %v: delay %v, want %v", c.after, got, c.want)
		}
	}

	rt := &Runtime{cfg: Config{HedgeAfter: -1}}
	for i := 0; i < 200; i++ {
		rt.stages.Read.Record(3 * time.Millisecond)
	}
	// The histogram reports the upper edge of the sample's quarter-octave
	// bucket.
	if got := rt.hedgeDelay(); got < 3*time.Millisecond || got > 4*time.Millisecond {
		t.Fatalf("delay %v after 200 reads of 3ms, want the Read stage's p99 (3-4ms)", got)
	}
}
