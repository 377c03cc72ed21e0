package serve

import (
	"context"
	"testing"
	"time"

	"qof"
)

// TestCanceledProbeDoesNotWedgeBreaker: a half-open probe that fails
// wholesale after the dispatcher canceled it (it lost to a hedge, say) counts
// neither way — and must not leave the breaker half-open with a probe
// "in flight" that will never report, which refused the replica all traffic
// for good. The breaker reopens with its cooldown served, so the next attempt
// is the probe.
func TestCanceledProbeDoesNotWedgeBreaker(t *testing.T) {
	s, err := New(Config{Schema: qof.BibTeX(), BreakerThreshold: 1, BreakerCooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b := s.breakers[0]
	live := context.Background()
	canceled, cancel := context.WithCancel(live)
	cancel()

	s.recordAttempt(0, false, live, live) // a wholesale failure opens it
	if b.admit(s.met) {
		t.Fatal("an open breaker inside its cooldown admitted an attempt")
	}
	time.Sleep(2 * time.Millisecond)
	if !b.admit(s.met) || s.BreakerState(0) != "half-open" {
		t.Fatalf("after the cooldown: state %s, want a half-open probe admitted", s.BreakerState(0))
	}
	s.recordAttempt(0, false, canceled, live) // the probe, canceled, failed wholesale
	if !b.admit(s.met) {
		t.Fatalf("state %s: the canceled probe left the breaker refusing the next one", s.BreakerState(0))
	}
	s.recordAttempt(0, true, live, live)
	if s.BreakerState(0) != "closed" {
		t.Fatalf("state %s after a successful probe, want closed", s.BreakerState(0))
	}
	// A canceled failure says nothing about a closed breaker either.
	s.recordAttempt(0, false, canceled, live)
	if s.BreakerState(0) != "closed" {
		t.Fatalf("state %s: a canceled failure moved a closed breaker", s.BreakerState(0))
	}
}
