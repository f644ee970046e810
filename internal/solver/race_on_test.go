//go:build race

package solver

// raceEnabled reports a -race build, where allocation counts stop being
// repeatable.
const raceEnabled = true
