package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExpModelMonotonic(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for l := 0.0; l < 100; l += 5 {
		p := m.AbortProb(l)
		if p < 0 || p > 1 {
			t.Fatalf("AbortProb(%v) = %v out of range", l, p)
		}
		if p < prev {
			t.Fatalf("AbortProb not monotonic at %v", l)
		}
		prev = p
	}
	if m.AbortProb(0) != 0 || m.AbortProb(-5) != 0 {
		t.Fatal("non-positive levels must map to probability 0")
	}
}

func TestExpCombine(t *testing.T) {
	m := DefaultModel()
	if got := m.Combine(nil); got != 0 {
		t.Fatalf("Combine(nil) = %v", got)
	}
	if got := m.Combine([]float64{0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Combine([0.5]) = %v", got)
	}
	got := m.Combine([]float64{0.5, 0.5})
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Combine([0.5 0.5]) = %v, want 0.75", got)
	}
	if got := m.Combine([]float64{1, 0}); got != 1 {
		t.Fatalf("Combine([1 0]) = %v", got)
	}
	// Out-of-range inputs are clamped.
	if got := m.Combine([]float64{-3, 7}); got != 1 {
		t.Fatalf("Combine clamps: got %v", got)
	}
}

func TestCombineAtLeastMaxProperty(t *testing.T) {
	m := DefaultModel()
	err := quick.Check(func(raw []float64) bool {
		probs := make([]float64, len(raw))
		max := 0.0
		for i, r := range raw {
			p := math.Abs(math.Mod(r, 1))
			if math.IsNaN(p) {
				p = 0
			}
			probs[i] = p
			if p > max {
				max = p
			}
		}
		c := m.Combine(probs)
		return c >= max-1e-9 && c <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestModelsAreContentionModels(t *testing.T) {
	var _ ContentionModel = CTLModel{}
}
