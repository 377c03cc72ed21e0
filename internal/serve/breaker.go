package serve

// Per-shard circuit breakers. Each engine replica has one breaker that
// trips after a run of consecutive wholesale failures (injected faults,
// panics, a replica that returns nothing) and routes traffic to the other
// replicas of each file's group. After a cooldown the breaker admits a
// single half-open probe; a successful probe closes it, a failed one
// reopens it. Per-file degradations do not count — a replica that answers,
// even partially, is healthy enough to route to.
//
// Breakers belong to the Server, not the published shard set: a hot reload
// swaps corpora but keeps the health history of the engines serving them.

import (
	"sync"
	"time"
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one replica's circuit breaker. All methods are safe for
// concurrent use.
type breaker struct {
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open time before a half-open probe is admitted

	mu       sync.Mutex
	state    breakerState // guarded by mu
	fails    int          // guarded by mu; consecutive wholesale failures
	openedAt time.Time    // guarded by mu; when the breaker last opened
	forced   bool         // guarded by mu; pinned open via ForceBreaker
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// admit reports whether the dispatcher may route an attempt to this
// replica. Closed admits everything. Open admits nothing until the
// cooldown elapses, then flips to half-open and admits exactly one probe;
// further attempts are rejected until that probe resolves.
func (b *breaker) admit(m *metrics) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		return false
	}
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			m.breakerHalfOpens.Add(1)
			return true
		}
		return false
	default: // half-open: the probe is in flight
		return false
	}
}

// success records a completed attempt: the failure run ends and a non-forced
// breaker closes (resolving a half-open probe in its favor).
func (b *breaker) success(m *metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.forced {
		return
	}
	if b.state != breakerClosed {
		b.state = breakerClosed
		m.breakerCloses.Add(1)
	}
}

// failure records a wholesale attempt failure: a half-open probe reopens the
// breaker immediately, a closed breaker opens once the run reaches the
// threshold.
func (b *breaker) failure(m *metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.forced {
		return
	}
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = time.Now()
		m.breakerOpens.Add(1)
	case breakerClosed:
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
			m.breakerOpens.Add(1)
		}
	}
}

// abandon records an attempt that was canceled before it could say anything.
// Were it the half-open probe, nothing would ever resolve it: the breaker
// reopens with its cooldown served, so the next attempt probes again.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// snapshot reads the breaker for /healthz.
func (b *breaker) snapshot() (state string, fails int, forced bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.fails, b.forced
}

// ForceBreaker pins the shard's breaker open (open=true) — no traffic is
// routed to the replica and successes cannot close it — or releases the pin
// and closes it (open=false). Out-of-range shards are ignored. The
// differential harness uses it to prove failover serves identical answers.
func (s *Server) ForceBreaker(shard int, open bool) {
	if shard < 0 || shard >= len(s.breakers) {
		return
	}
	b := s.breakers[shard]
	b.mu.Lock()
	defer b.mu.Unlock()
	b.forced = open
	if open {
		if b.state != breakerOpen {
			s.met.breakerOpens.Add(1)
		}
		b.state = breakerOpen
		b.openedAt = time.Now()
	} else {
		if b.state != breakerClosed {
			s.met.breakerCloses.Add(1)
		}
		b.state = breakerClosed
		b.fails = 0
	}
}

// BreakerState reports the shard's breaker state string ("closed", "open"
// or "half-open"), for tests and operators.
func (s *Server) BreakerState(shard int) string {
	if shard < 0 || shard >= len(s.breakers) {
		return ""
	}
	state, _, _ := s.breakers[shard].snapshot()
	return state
}
