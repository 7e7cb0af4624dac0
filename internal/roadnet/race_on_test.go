//go:build race

package roadnet

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// on purpose (to shake out code that relies on reuse), so a pooled scratch
// misses far more often than in a plain build.
const raceEnabled = true
