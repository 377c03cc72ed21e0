//go:build race

package region

// Under the race detector allocation sizes and counts are not the
// program's own.
const raceEnabled = true
