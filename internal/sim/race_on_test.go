//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops pooled frames
// at random, so allocation counts there say nothing about the hot path.
const raceEnabled = true
