//go:build race

package qof_test

import "time"

// The race detector multiplies per-iteration cost by 5-10x, so the
// cancellation-latency bound the acceptance criterion states for normal
// builds is scaled accordingly here.
const deadlineLatencyBound = 400 * time.Millisecond

// Under the race detector sync.Pool drops a share of what is Put, so
// allocation counts on pooled paths are not deterministic.
const raceEnabled = true
