//go:build !race

package bcf

const raceEnabled = false
