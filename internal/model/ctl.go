package model

import "math"

// CTLModel follows the commit-time-locking analysis of di Sanzo et al.
// (the methodology the paper cites for computing Block abort
// probabilities): an object read at position k of an n-Block sequence stays
// in the read-set — vulnerable to invalidation — until commit, so its abort
// probability grows with both the object's write rate and the number of
// Blocks executed after it. This is the analytic backbone of the paper's
// step 3: moving hot Blocks toward the commit point shrinks exactly this
// vulnerability window.
type CTLModel struct {
	// Alpha scales one window's write count into an invalidation rate per
	// Block-execution time unit.
	Alpha float64
}

// AbortProb implements ContentionModel for a one-Block window.
func (m CTLModel) AbortProb(level float64) float64 {
	return m.WindowAbortProb(level, 1)
}

// WindowAbortProb is the probability that an object with the given
// contention level is invalidated during `window` Block-execution time
// units: p = 1 - exp(-alpha * level * window).
func (m CTLModel) WindowAbortProb(level, window float64) float64 {
	if level <= 0 || window <= 0 {
		return 0
	}
	return 1 - math.Exp(-m.Alpha*level*window)
}

// Combine implements ContentionModel: objects are invalidated
// independently, so P(block) = 1 - prod(1 - p_i), each p_i clamped to [0, 1].
func (m CTLModel) Combine(probs []float64) float64 {
	keep := 1.0
	for _, p := range probs {
		keep *= 1 - min(max(p, 0), 1)
	}
	return 1 - keep
}

// ExpectedRestartWeight scores a Block ordering: levels[k] is the
// contention level of the Block at position k. A Block's objects enter the
// transaction's history when the Block commits and stay vulnerable for the
// remaining n-1-k Block executions; an invalidation there forces a full
// restart (the closed-nesting rule — only the currently executing Block can
// roll back partially). The score sums each position's full-restart
// probability, so lower is better.
//
// This is the quantity the paper's step 3 implicitly minimizes. In the
// small-probability regime the exponential is linear and the rearrangement
// inequality makes increasing-contention order the exact minimizer (see
// LinearRestartWeight); under saturation a nearly-certain-to-abort Block's
// position stops mattering, so ascending order remains a strong heuristic
// rather than the exact optimum — the test suite pins down both facts.
func (m CTLModel) ExpectedRestartWeight(levels []float64) float64 {
	n := len(levels)
	var sum float64
	for k, level := range levels {
		sum += m.WindowAbortProb(level, float64(n-1-k))
	}
	return sum
}

// LinearRestartWeight is the small-probability limit of
// ExpectedRestartWeight: sum over positions of level × remaining window.
// By the rearrangement inequality, pairing large levels with small windows
// — i.e. sorting Blocks by increasing contention — minimizes it exactly.
func (m CTLModel) LinearRestartWeight(levels []float64) float64 {
	n := len(levels)
	var sum float64
	for k, level := range levels {
		sum += m.Alpha * level * float64(n-1-k)
	}
	return sum
}

var _ ContentionModel = CTLModel{}
