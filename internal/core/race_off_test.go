//go:build !race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build. Its shadow allocations inflate allocation counters, so
// allocation-count guards gate on it.
const raceEnabled = false
