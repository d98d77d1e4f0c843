//go:build race

package video

// raceEnabled reports a -race build, where sync.Pool drops items on
// purpose, so allocation counts do not describe the production program.
const raceEnabled = true
