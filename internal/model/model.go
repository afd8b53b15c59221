// Package model supplies the analytic contention model ACN uses to turn raw
// contention levels (write counts per window) into abort probabilities, in
// the spirit of di Sanzo et al.'s analytical modeling of STM concurrency
// control. The paper lets programmers plug in custom characterizations of
// "hot spot"; ContentionModel is that extension point.
package model

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

// DefaultModel returns the model used throughout the evaluation.
func DefaultModel() CTLModel { return CTLModel{Alpha: 0.05} }
