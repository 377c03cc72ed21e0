//go:build !race

package region

const raceEnabled = false
