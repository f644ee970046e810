//go:build race

package verifier

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of released states and allocation counts stop being repeatable.
const raceEnabled = true
