//go:build !race

package qof_test

import "time"

// The headline bound: a 1ms-deadline query on the stress corpus must
// return within 50ms (see docs/ROBUSTNESS.md). race_enabled_test.go
// relaxes this under the race detector's instrumentation overhead.
const deadlineLatencyBound = 50 * time.Millisecond

const raceEnabled = false
