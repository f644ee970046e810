//go:build race

package bcf

// raceEnabled reports a -race build, where allocation counts stop being
// repeatable.
const raceEnabled = true
