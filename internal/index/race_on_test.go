//go:build race

package index_test

// Under the race detector allocation counts are not the program's own.
const raceEnabled = true
