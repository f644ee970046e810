//go:build race

package expr

// raceEnabled reports a -race build, where allocation counts stop being
// repeatable.
const raceEnabled = true
