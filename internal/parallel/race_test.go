//go:build race

package parallel

// raceEnabled reports a -race build. The race runtime drops sync.Pool
// Puts at random, so a pooled path's allocation figure is not stable
// under it.
const raceEnabled = true
