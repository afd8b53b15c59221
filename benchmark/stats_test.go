package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.90, 9}, {0.91, 10}, {0, 1}, {1, 10}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

// The percentile a sample can carry is the highest with ten samples beyond
// it: 200 samples support p95 (exactly ten beyond), 199 do not.
func TestTailSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.50, true}, {19, 0.50, false}} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// driver uses; the expected values below are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 40}, 10, 40},
		{[]float64{3.0, 1.0, 4.0, 1.5, 9.0}, 1.25, 6.5},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestUnionLength(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {45, 46}}
	if got := unionLength(append([]interval(nil), ivs...), nil); got != 30 {
		t.Errorf("union = %d, want 30", got)
	}
	if got := unionLength(append([]interval(nil), ivs...), &interval{18, 42}); got != 14 {
		t.Errorf("clipped union = %d, want 14", got)
	}
	if got := unionLength(nil, nil); got != 0 {
		t.Errorf("empty union = %d, want 0", got)
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  10 0 10 100 0 0 0 46 0 0\ncpu0 5 0 5 50 0 0 0 12 0 0\ncpu1 5 0 5 50 0 0 0 34 0 0\ncpu10 1 1 1 1 1 1 1 7 0 0\nintr 1 2 3\n")
	for cpu, want := range map[int]time.Duration{0: 120 * time.Millisecond, 1: 340 * time.Millisecond, 10: 70 * time.Millisecond, 2: 0} {
		if got := parseSteal(stat, cpu); got != want {
			t.Errorf("cpu %d: steal %v, want %v", cpu, got, want)
		}
	}
	if got := parseSteal([]byte("cpu1 5 0 5\n"), 1); got != 0 {
		t.Errorf("short line: steal %v, want 0", got)
	}
}
