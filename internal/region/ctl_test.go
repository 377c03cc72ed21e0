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
	u := universeOf(R, S)
	if got, err := u.DirectlyIncludingCtl(R, S, false, nil); err != nil || !got.Equal(u.DirectlyIncluding(R, S)) {
		t.Fatalf("DirectlyIncludingCtl(nil) diverges (err=%v)", err)
	}
	if got, err := u.DirectlyIncludedCtl(R, S, false, nil); err != nil || !got.Equal(NaiveDirectlyIncluded(R, S, u.All())) {
		t.Fatalf("DirectlyIncludedCtl(nil) diverges (err=%v)", err)
	}
	keep := func(r Region) bool { return r.Len() > 10 }
	got, err := R.FilterCtl(keep, nil)
	if err != nil || !got.Equal(R.Filter(keep)) {
		t.Fatalf("FilterCtl(nil) diverges (err=%v)", err)
	}
}

func TestCtlAborts(t *testing.T) {
	R, S := randomCtlSets(t, 100, 2)
	u := universeOf(R, S)
	boom := errors.New("boom")
	fail := func() error { return boom }
	kernels := map[string]func() (Set, error){
		"IncludingCtl":         func() (Set, error) { return R.IncludingCtl(S, fail) },
		"IncludedCtl":          func() (Set, error) { return R.IncludedCtl(S, fail) },
		"DirectlyIncludingCtl": func() (Set, error) { return u.DirectlyIncludingCtl(R, S, true, fail) },
		"DirectlyIncludedCtl":  func() (Set, error) { return u.DirectlyIncludedCtl(R, S, true, fail) },
		"FilterCtl":            func() (Set, error) { return R.FilterCtl(func(Region) bool { return true }, fail) },
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

// TestNewUniversePolls: the build polls once per stride in each of its two
// passes — per region read in the merge, per region of the union in the
// forest sweep — and a failing poll in either abandons it with the
// checker's error and no universe.
func TestNewUniversePolls(t *testing.T) {
	outer, inner, few := skewedSets(3*pollStride, 2, 3) // few repeats a third of inner
	sets := []Set{outer, inner, few}
	strides := func(n int) int { return (n + pollStride - 1) / pollStride }
	merge := strides(outer.Len() + inner.Len() + few.Len())
	sweep := strides(outer.Len() + inner.Len())
	polls := 0
	if _, err := NewUniverse(sets, func() error { polls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if polls != merge+sweep {
		t.Fatalf("polled %d times, want %d in the merge and %d in the sweep", polls, merge, sweep)
	}
	boom := errors.New("boom")
	for _, at := range []int{2, merge + 2} { // mid-merge, mid-sweep
		calls := 0
		u, err := NewUniverse(sets, func() error {
			if calls++; calls == at {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || u != nil || calls != at {
			t.Errorf("failing poll %d: universe %v, err %v, stopped after %d polls", at, u, err, calls)
		}
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
	u := universeOf(outer, inner)
	// Over the universe of inner alone the regions of outer are outside
	// it, so their direct pairs with a few inner regions take the rule.
	uIn := universeOf(inner)
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
		"DirectlyIncludingCtl": func(c Checker) (Set, error) { return u.DirectlyIncludingCtl(outer, inner, false, c) },
		"DirectlyIncludedCtl":  func(c Checker) (Set, error) { return u.DirectlyIncludedCtl(inner, outer, false, c) },
		"⊃d, outside":          func(c Checker) (Set, error) { return uIn.DirectlyIncludingCtl(outer, few, true, c) },
		"⊂d, outside":          func(c Checker) (Set, error) { return uIn.DirectlyIncludedCtl(few, outer, true, c) },
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
