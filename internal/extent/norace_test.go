//go:build !race

package extent

// raceEnabled reports that the race detector is on (see race_test.go).
const raceEnabled = false
