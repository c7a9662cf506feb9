//go:build race

package core

// raceEnabled lets the one test that populates a 256 MiB device skip
// itself under the race detector, whose shadow memory multiplies it.
const raceEnabled = true
