//go:build !race

package client

// raceEnabled reports whether the race detector is instrumenting this
// build. sync.Pool deliberately drops a fraction of Puts under the
// detector, so strict allocation bounds gate on it.
const raceEnabled = false
