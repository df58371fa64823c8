//go:build race

package node

// raceEnabled: see race_off_test.go.
const raceEnabled = true
