//go:build race

// Package raceflag tells tests whether they run under the race detector.
// Suites keep every correctness assertion under -race but skip quantitative
// bounds: the race runtime serializes goroutines and inflates tails ~10x, and
// it empties sync.Pools at random and allocates shadow state, so latency,
// goodput and allocation ceilings would measure the detector, not the system.
package raceflag

// Enabled reports whether this binary was built with -race.
const Enabled = true
