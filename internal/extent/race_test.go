//go:build race

package extent

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops items at random, so allocation guards that rely on a pool skip.
const raceEnabled = true
