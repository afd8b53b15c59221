// Package model supplies the analytic contention model ACN uses to turn raw
// contention levels (write counts per window) into abort probabilities, in
// the spirit of di Sanzo et al.'s analytical modeling of STM concurrency
// control. The paper lets programmers plug in custom characterizations of
// "hot spot"; ContentionModel is that extension point.
package model

import "math"

// ContentionModel maps observed contention levels to abort probabilities.
// Implementations must be safe for concurrent use.
type ContentionModel interface {
	// AbortProb estimates the probability that a (sub-)transaction reading
	// one object with the given contention level is invalidated.
	AbortProb(level float64) float64
	// Combine estimates the abort probability of a Block accessing objects
	// with the given individual abort probabilities.
	Combine(probs []float64) float64
}

// ExpModel is the fast default model: p = 1 - exp(-alpha * level), i.e.
// writes arrive as a Poisson process and any write during the read's
// vulnerability window invalidates it; blocks combine independently:
// P(block) = 1 - prod(1 - p_i).
type ExpModel struct {
	// Alpha scales one window's write count into an invalidation rate.
	Alpha float64
}

// DefaultModel returns the model used throughout the evaluation.
func DefaultModel() ExpModel { return ExpModel{Alpha: 0.05} }

// AbortProb implements ContentionModel.
func (m ExpModel) AbortProb(level float64) float64 {
	if level <= 0 {
		return 0
	}
	return 1 - math.Exp(-m.Alpha*level)
}

// Combine implements ContentionModel.
func (m ExpModel) Combine(probs []float64) float64 {
	keep := 1.0
	for _, p := range probs {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		keep *= 1 - p
	}
	return 1 - keep
}
