//go:build race

package core

// raceEnabled: see race_off_test.go.
const raceEnabled = true
