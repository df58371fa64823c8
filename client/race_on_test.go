//go:build race

package client

// raceEnabled: see race_off_test.go.
const raceEnabled = true
