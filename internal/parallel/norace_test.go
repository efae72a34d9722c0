//go:build !race

package parallel

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
