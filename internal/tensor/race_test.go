//go:build race

package tensor

// raceEnabled reports a -race build. The race runtime drops sync.Pool
// Puts at random, so a pooled path's allocation count is not stable
// under it.
const raceEnabled = true
