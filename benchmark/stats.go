package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th (0..1) percentile of sorted, an
// ascending slice: the smallest sample with at least p of the samples at or
// below it. It reports 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailSupported reports whether n samples leave at least ten beyond the
// p-th percentile — the choosing-metrics rule for which percentile a sample
// can carry. Latency rows that fail it are flagged "thin tail" in the report.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// median returns the median of vals without reordering the caller's slice.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive" method) —
// the driver computes run-to-run spread with that function, so the comparer
// must agree with it. Fewer than two values have no spread: both quartiles
// are the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := sortedCopy(vals)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median (0 when the
// median is 0 or fewer than two values exist).
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 || len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range in nanoseconds since the pass began.
type interval struct{ start, end int64 }

// unionLength returns the total length covered by the intervals, counting
// overlapping stretches once. When clip is non-nil, only coverage inside
// clip counts. The input slice is reordered.
func unionLength(ivs []interval, clip *interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curS, curE := ivs[0].start, ivs[0].end
	flush := func() {
		s, e := curS, curE
		if clip != nil {
			if s < clip.start {
				s = clip.start
			}
			if e > clip.end {
				e = clip.end
			}
		}
		if e > s {
			total += e - s
		}
	}
	for _, iv := range ivs[1:] {
		if iv.start <= curE {
			if iv.end > curE {
				curE = iv.end
			}
			continue
		}
		flush()
		curS, curE = iv.start, iv.end
	}
	flush()
	return total
}
