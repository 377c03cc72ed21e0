//go:build race

package grammar_test

// Under the race detector sync.Pool drops a share of what is Put, so
// allocation counts on the pooled path are not deterministic.
const raceEnabled = true
