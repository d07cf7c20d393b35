//go:build race

package waldisk_test

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops a fraction of Puts under -race, so allocation-count
// assertions are skipped.
const raceEnabled = true
