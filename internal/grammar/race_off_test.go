//go:build !race

package grammar_test

const raceEnabled = false
