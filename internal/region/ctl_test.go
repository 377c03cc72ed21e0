package region

import (
	"errors"
	"math/rand"
	"testing"
)

// randomCtlSets builds two overlapping region sets large enough that every
// kernel's sweep crosses several poll strides.
func randomCtlSets(t *testing.T, n int, seed int64) (Set, Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func() Set {
		rs := make([]Region, n)
		for i := range rs {
			start := rng.Intn(10 * n)
			rs[i] = Of(start, start+1+rng.Intn(50))
		}
		return FromRegions(rs)
	}
	return mk(), mk()
}

func TestCtlNilCheckerMatchesPlain(t *testing.T) {
	R, S := randomCtlSets(t, 3000, 1)
	if got, err := R.IncludingCtl(S, nil); err != nil || !got.Equal(R.Including(S)) {
		t.Fatalf("IncludingCtl(nil) diverges (err=%v)", err)
	}
	if got, err := R.IncludedCtl(S, nil); err != nil || !got.Equal(R.Included(S)) {
		t.Fatalf("IncludedCtl(nil) diverges (err=%v)", err)
	}
	u := namedOf(R, S)
	if got, err := DirectlyIncluding(R, S, u, nil); err != nil || !got.Equal(NaiveDirectlyIncluding(R, S, u.all())) {
		t.Fatalf("DirectlyIncluding(nil) diverges (err=%v)", err)
	}
	if got, err := DirectlyIncluded(R, S, u, nil); err != nil || !got.Equal(NaiveDirectlyIncluded(R, S, u.all())) {
		t.Fatalf("DirectlyIncluded(nil) diverges (err=%v)", err)
	}
	keep := func(r Region) bool { return r.Len() > 10 }
	got, err := R.FilterCtl(keep, nil)
	if err != nil || !got.Equal(R.Filter(keep)) {
		t.Fatalf("FilterCtl(nil) diverges (err=%v)", err)
	}
}

func TestCtlAborts(t *testing.T) {
	R, S := randomCtlSets(t, 100, 2)
	u := namedOf(R, S)
	boom := errors.New("boom")
	fail := func() error { return boom }
	kernels := map[string]func() (Set, error){
		"IncludingCtl":      func() (Set, error) { return R.IncludingCtl(S, fail) },
		"IncludedCtl":       func() (Set, error) { return R.IncludedCtl(S, fail) },
		"DirectlyIncluding": func() (Set, error) { return DirectlyIncluding(R, S, u, fail) },
		"DirectlyIncluded":  func() (Set, error) { return DirectlyIncluded(R, S, u, fail) },
		"FilterCtl":         func() (Set, error) { return R.FilterCtl(func(Region) bool { return true }, fail) },
	}
	for name, k := range kernels {
		got, err := k()
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want boom", name, err)
		}
		if !got.IsEmpty() {
			t.Errorf("%s: aborted kernel returned %d regions, want none", name, got.Len())
		}
	}
}

// TestPollStride proves the poll cadence: a counting checker is consulted on
// iteration 0 and then once per stride, so a sweep over n regions polls
// ceil(n/pollStride) times — not n times (hot-path cost) and not once
// (cancellation latency).
func TestPollStride(t *testing.T) {
	n := 3*pollStride + 10
	rs := make([]Region, n)
	for i := range rs {
		rs[i] = Of(2*i, 2*i+1)
	}
	s := FromRegions(rs)
	polls := 0
	count := func() error { polls++; return nil }
	if _, err := s.FilterCtl(func(Region) bool { return true }, count); err != nil {
		t.Fatal(err)
	}
	if want := 4; polls != want { // iterations 0, 1024, 2048, 3072
		t.Fatalf("polled %d times over %d regions, want %d", polls, n, want)
	}
}

// TestDirectSweepPolls: the sweep polls once per stride in each of its
// passes — the ⊃ kernels, the merge of their answers, the pass over the
// contained side — and a failing poll in any of them abandons it with the
// checker's error and no answer.
func TestDirectSweepPolls(t *testing.T) {
	outer, inner, few := skewedSets(3*pollStride, 2, 3) // few repeats a third of inner
	sets := []Set{outer, inner, few}
	polls := 0
	want, err := DirectlyIncluding(outer, inner, sets, func() error { polls++; return nil })
	if err != nil || !want.Equal(outer) {
		t.Fatalf("⊃d = %d regions (err %v), want the %d of outer", want.Len(), err, outer.Len())
	}
	boom := errors.New("boom")
	for at := 1; at <= polls; at++ {
		calls := 0
		got, err := DirectlyIncluding(outer, inner, sets, func() error {
			if calls++; calls == at {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || !got.IsEmpty() || calls != at {
			t.Errorf("failing poll %d of %d: %d regions, err %v, stopped after %d polls", at, polls, got.Len(), err, calls)
		}
	}
	n := 0
	if err := DirectPairs(sets, func() error { n++; return nil }, func(_, _ int, _, _ Region) bool { return true }); err != nil || n < 3 {
		t.Fatalf("DirectPairs polled %d times (err %v)", n, err)
	}
	if err := DirectPairs(sets, func() error { return boom }, func(_, _ int, _, _ Region) bool { return true }); !errors.Is(err, boom) {
		t.Errorf("DirectPairs under a failing check: err %v, want boom", err)
	}
}

// TestCtlAbortMidSweep trips the checker only after the first stride,
// proving the abort also works from the middle of a merge.
func TestCtlAbortMidSweep(t *testing.T) {
	R, S := randomCtlSets(t, 3*pollStride, 3)
	boom := errors.New("late boom")
	calls := 0
	late := func() error {
		calls++
		if calls >= 2 {
			return boom
		}
		return nil
	}
	if _, err := R.IncludingCtl(S, late); !errors.Is(err, boom) {
		t.Fatalf("IncludingCtl: err = %v, want late boom", err)
	}
	calls = 0
	if _, err := R.IncludedCtl(S, late); !errors.Is(err, boom) {
		t.Fatalf("IncludedCtl: err = %v, want late boom", err)
	}
	// An abort leaves nothing behind: the next call computes the full
	// answer.
	got, err := R.IncludingCtl(S, nil)
	if err != nil || !got.Equal(R.Including(S)) {
		t.Fatalf("IncludingCtl after abort diverges (err=%v)", err)
	}
}

// TestProbeKernelsAbort: every new loop stops at the poll that fails —
// within one pollStride of the failure — and returns Empty. The checker
// fails on its second call, so the abort comes from the middle of the loop.
func TestProbeKernelsAbort(t *testing.T) {
	n := 3 * pollStride
	outer, inner, _ := skewedSets(n, 2, 1)
	nested := inner.Union(outer) // not disjoint: inner regions sit inside outer ones
	u := namedOf(outer, inner)
	// With inner alone named the regions of outer never block.
	uIn := namedOf(inner)
	few := sample(rand.New(rand.NewSource(2)), inner, pollStride)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	boom := errors.New("boom")
	for name, run := range map[string]func(Checker) (Set, error){
		"includingByContainer": func(c Checker) (Set, error) { return outer.IncludingCtl(nested, c) },
		"includingByContent":   func(c Checker) (Set, error) { return nested.IncludingCtl(inner, c) },
		"includedByContent":    func(c Checker) (Set, error) { return inner.IncludedCtl(nested, c) },
		"includedByContainer":  func(c Checker) (Set, error) { return nested.IncludedCtl(outer, c) },
		"Holding":              func(c Checker) (Set, error) { return outer.Holding(inner, c) },
		"HoldingIter":          func(c Checker) (Set, error) { return Materialize(HoldingIter(outer, inner, c)) },
		"Pick":                 func(c Checker) (Set, error) { return outer.Pick(idx, c) },
		"DirectlyIncluding":    func(c Checker) (Set, error) { return DirectlyIncluding(outer, inner, u, c) },
		"DirectlyIncluded":     func(c Checker) (Set, error) { return DirectlyIncluded(inner, outer, u, c) },
		"⊃d, outside":          func(c Checker) (Set, error) { return DirectlyIncluding(outer, few, uIn, c) },
		"⊂d, outside":          func(c Checker) (Set, error) { return DirectlyIncluded(few, outer, uIn, c) },
	} {
		full := 0
		if got, err := run(func() error { full++; return nil }); err != nil || got.IsEmpty() {
			t.Fatalf("%s: unaborted run: %d regions, err %v", name, got.Len(), err)
		}
		if full < 3 {
			t.Fatalf("%s: only %d polls over %d regions; the fixture does not cross a stride", name, full, n)
		}
		calls := 0
		got, err := run(func() error {
			if calls++; calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || !got.IsEmpty() {
			t.Errorf("%s: aborted run returned %d regions, err %v", name, got.Len(), err)
		}
		if calls != 2 {
			t.Errorf("%s: polled %d times, want it to stop at the second poll", name, calls)
		}
	}
}
