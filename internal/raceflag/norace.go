//go:build !race

package raceflag

// Enabled reports whether this binary was built with -race.
const Enabled = false
