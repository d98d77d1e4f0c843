//go:build !race

package video

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
