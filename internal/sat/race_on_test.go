//go:build race

package sat

// raceEnabled reports a -race build, where allocation counts stop being
// repeatable.
const raceEnabled = true
