package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestCTLWindowMonotonic(t *testing.T) {
	m := DefaultModel()
	if m.WindowAbortProb(5, 0) != 0 || m.WindowAbortProb(0, 5) != 0 {
		t.Fatal("zero window or level must give 0")
	}
	prev := -1.0
	for w := 1.0; w <= 8; w++ {
		p := m.WindowAbortProb(3, w)
		if p <= prev {
			t.Fatalf("not monotonic in window at %v", w)
		}
		if p < 0 || p > 1 {
			t.Fatalf("out of range: %v", p)
		}
		prev = p
	}
	if m.AbortProb(3) != m.WindowAbortProb(3, 1) {
		t.Fatal("AbortProb must be the one-window case")
	}
}

// permutations generates all orderings of xs.
func permutations(xs []float64) [][]float64 {
	if len(xs) <= 1 {
		return [][]float64{append([]float64(nil), xs...)}
	}
	var out [][]float64
	for i := range xs {
		rest := make([]float64, 0, len(xs)-1)
		rest = append(rest, xs[:i]...)
		rest = append(rest, xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]float64{xs[i]}, p...))
		}
	}
	return out
}

func ascending(levels []float64) []float64 {
	asc := append([]float64(nil), levels...)
	for i := 0; i < len(asc); i++ {
		for j := i + 1; j < len(asc); j++ {
			if asc[j] < asc[i] {
				asc[i], asc[j] = asc[j], asc[i]
			}
		}
	}
	return asc
}

// TestAscendingOrderMinimizesLinearWeight verifies the analytic claim
// behind the paper's step 3 in the small-probability regime: among all
// Block orderings, sorting by increasing contention exactly minimizes the
// expected-full-restart score (rearrangement inequality).
func TestAscendingOrderMinimizesLinearWeight(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		levels := make([]float64, 5)
		for i := range levels {
			levels[i] = rng.Float64() * 40
		}
		best := m.LinearRestartWeight(ascending(levels))
		for _, perm := range permutations(levels) {
			if w := m.LinearRestartWeight(perm); w < best-1e-9 {
				t.Fatalf("trial %d: permutation %v scores %v < ascending %v",
					trial, perm, w, best)
			}
		}
	}
}

// TestOrderingRegimes documents how the optimal ordering depends on the
// contention regime, which bounds where the paper's step 3 heuristic pays:
//
//   - moderate contention (the regime the paper's experiments and this
//     harness operate in): ascending order beats descending, often by a
//     lot — hot spots belong next to the commit point;
//   - full saturation (every Block nearly certain to be invalidated): the
//     preference *inverts*, because a Block that aborts anyway no longer
//     cares where it sits and only the coolest Block can be saved by the
//     final position.
//
// ACN inherits this: its gains concentrate where partial rollback can pay
// at all, exactly as the paper's Fig. 4(d) discussion says.
func TestOrderingRegimes(t *testing.T) {
	m := DefaultModel()
	reverse := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[len(xs)-1-i] = v
		}
		return out
	}

	// Moderate regime: levels such that alpha*level*window stays small.
	rng := rand.New(rand.NewSource(9))
	wins := 0
	for trial := 0; trial < 200; trial++ {
		levels := make([]float64, 6)
		for i := range levels {
			levels[i] = rng.Float64() * 4
		}
		asc := ascending(levels)
		if m.ExpectedRestartWeight(asc) < m.ExpectedRestartWeight(reverse(asc))-1e-12 {
			wins++
		}
	}
	if wins < 195 {
		t.Fatalf("moderate regime: ascending won only %d of 200", wins)
	}

	// Saturated regime: the inversion must be observable.
	sat := ascending([]float64{35, 37, 52, 69, 70, 75})
	if m.ExpectedRestartWeight(sat) <= m.ExpectedRestartWeight(reverse(sat)) {
		t.Fatal("saturation inversion no longer observable; model changed?")
	}
}

func TestCTLCombineMatchesExp(t *testing.T) {
	m := DefaultModel()
	probs := []float64{0.1, 0.4, 0.7}
	if want := 1 - (1-0.1)*(1-0.4)*(1-0.7); math.Abs(m.Combine(probs)-want) > 1e-12 {
		t.Fatal("CTL Combine should match the independent-objects rule")
	}
}

func TestCTLRestartWeightShape(t *testing.T) {
	m := DefaultModel()
	// A hot block early costs more than the same block late.
	early := m.ExpectedRestartWeight([]float64{50, 1, 1, 1})
	late := m.ExpectedRestartWeight([]float64{1, 1, 1, 50})
	if late >= early {
		t.Fatalf("late hot block (%v) should beat early (%v)", late, early)
	}
	// The final block contributes nothing (commits immediately after).
	if got := m.ExpectedRestartWeight([]float64{100}); got != 0 {
		t.Fatalf("single block weight = %v, want 0", got)
	}
}
