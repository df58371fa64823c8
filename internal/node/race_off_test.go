//go:build !race

package node

// raceEnabled reports whether the race detector is instrumenting this
// build. Its shadow allocations inflate allocation counters, so
// allocation-count guards gate on it.
const raceEnabled = false
