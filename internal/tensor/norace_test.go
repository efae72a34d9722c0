//go:build !race

package tensor

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
