//go:build !race

package wire

// raceEnabled reports whether the race detector is instrumenting this
// build. sync.Pool deliberately drops a fraction of Puts under the
// detector, so allocation bounds on pooled paths gate on it.
const raceEnabled = false
