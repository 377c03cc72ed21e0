package region

import (
	"errors"
	"math/rand"
	"testing"
)

// collect drains an iterator into a Set via Materialize, failing on error.
func collect(t *testing.T, it Iterator) Set {
	t.Helper()
	s, err := Materialize(it)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return s
}

// disjointPart keeps the regions of s that no earlier kept region
// overlaps: a disjoint set for the probe iterators to hold.
func disjointPart(s Set) Set {
	end := -1
	return s.Filter(func(r Region) bool {
		if int(r.Start) < end {
			return false
		}
		end = int(r.End)
		return true
	})
}

// TestIteratorsMatchSetOps is the kernel-level differential: every streaming
// operator must reproduce its definition exactly on random overlapping
// sets — the filter over any set, and the probes over a disjoint one.
func TestIteratorsMatchSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	even := func(r Region) bool { return r.Len()%2 == 0 }
	for trial := 0; trial < 500; trial++ {
		sets := randomSets(rng, 2+rng.Intn(40), 2, 30)
		R, S := sets[0], sets[1]
		D := disjointPart(R)
		if !D.Disjoint() {
			t.Fatalf("trial %d: disjointPart(%v) = %v is not disjoint", trial, R.Regions(), D.Regions())
		}
		pts := points(S)
		cases := []struct {
			name string
			want Set
			got  Iterator
		}{
			{"iter", R, R.Iter()},
			{"filter", R.Filter(even), FilterIter(R.Iter(), even)},
			{"including", NaiveIncluding(D, S), IncludingSetIter(D, S.Iter())},
			{"self-including", NaiveIncluding(D, D), IncludingSetIter(D, D.Iter())},
			{"holding", naiveHolding(D, pts), HoldingIter(D, pts, nil)},
		}
		for _, c := range cases {
			if got := collect(t, c.got); !got.Equal(c.want) {
				t.Fatalf("trial %d %s: streaming %v, materializing %v\nR=%v\nS=%v",
					trial, c.name, got.Regions(), c.want.Regions(), R.Regions(), S.Regions())
			}
		}
	}
}

// TestIteratorTieCases pins the strictness ties the ⊃ probe handles
// specially: a region of the stream equal to one of the set, distinct
// regions sharing a Start or an End, and an empty region on an End.
func TestIteratorTieCases(t *testing.T) {
	R := mk(0, 4, 4, 10)
	for _, S := range []Set{
		R,                     // a lone region never strictly includes itself
		mk(0, 2, 0, 4, 6, 10), // shared Starts and Ends
		mk(4, 4),              // an empty region on a shared boundary has two containers
		mk(0, 4, 4, 4, 4, 6),  // and is reported after the region that starts with it
	} {
		if got, want := collect(t, IncludingSetIter(R, S.Iter())), NaiveIncluding(R, S); !got.Equal(want) {
			t.Errorf("%v ⊃ %v: got %v, want %v", R.Regions(), S.Regions(), got.Regions(), want.Regions())
		}
	}
}

// iterators returns one of each iterator over R and S, fresh.
func iterators(R, S Set) map[string]Iterator {
	D := disjointPart(R)
	return map[string]Iterator{
		"iter":      R.Iter(),
		"filter":    FilterIter(R.Iter(), func(r Region) bool { return r.Len() > 1 }),
		"including": IncludingSetIter(D, S.Iter()),
		"holding":   HoldingIter(D, points(S), nil),
	}
}

// TestIteratorExhaustionSticky: once an iterator reports exhaustion, every
// later Next must report it again.
func TestIteratorExhaustionSticky(t *testing.T) {
	R, S := mk(0, 2, 4, 6), mk(1, 5, 4, 5)
	for name, it := range iterators(R, S) {
		for {
			if _, ok, err := it.Next(); err != nil {
				t.Fatalf("%s: %v", name, err)
			} else if !ok {
				break
			}
		}
		for k := 0; k < 3; k++ {
			if _, ok, err := it.Next(); ok || err != nil {
				t.Fatalf("%s: Next after exhaustion = (%v, %v)", name, ok, err)
			}
		}
		it.Close()
	}
}

// TestIteratorCloseAfterPartial: Close mid-stream is clean — idempotent,
// and Next afterwards reports exhaustion rather than resuming.
func TestIteratorCloseAfterPartial(t *testing.T) {
	R, S := mk(0, 10, 12, 20, 22, 30), mk(1, 3, 13, 15, 23, 25)
	for name, it := range iterators(R, S) {
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("%s: first Next: (%v, %v)", name, ok, err)
		}
		it.Close()
		it.Close() // idempotent
		if _, ok, err := it.Next(); ok || err != nil {
			t.Fatalf("%s: Next after Close = (%v, %v), want exhausted", name, ok, err)
		}
	}
}

// failingIter yields rs, then fails with err once, then reports
// exhaustion: an iterator that repeats the error has kept it itself.
type failingIter struct {
	rs  []Region
	err error
}

func (f *failingIter) Next() (Region, bool, error) {
	if len(f.rs) == 0 {
		err := f.err
		f.err = nil
		return Region{}, false, err
	}
	r := f.rs[0]
	f.rs = f.rs[1:]
	return r, true, nil
}

func (f *failingIter) Close() {}

// TestIteratorErrorSticky: an operand stream that fails aborts the filter
// or the probe, and the error is returned from every subsequent Next.
func TestIteratorErrorSticky(t *testing.T) {
	boom := errors.New("boom")
	R := mk(0, 10, 0, 4, 2, 3)
	fail := func() Iterator { return &failingIter{rs: R.Regions()[:1], err: boom} }
	stop := func() error { return boom }
	for name, it := range map[string]Iterator{
		"σ, failing operand":      FilterIter(fail(), func(Region) bool { return true }),
		"⊃ probe, failing right":  IncludingSetIter(mk(0, 10), fail()),
		"σ_w probe, failing poll": HoldingIter(mk(0, 10), R, stop),
	} {
		var err error
		for {
			var ok bool
			if _, ok, err = it.Next(); !ok || err != nil {
				break
			}
		}
		if !errors.Is(err, boom) {
			t.Fatalf("%s: stream error not surfaced: %v", name, err)
		}
		if _, ok, err2 := it.Next(); ok || !errors.Is(err2, boom) {
			t.Fatalf("%s: error not sticky: (%v, %v)", name, ok, err2)
		}
		it.Close()
	}
}

// TestMaterializeCanonical: Materialize output must be canonical without
// re-sorting, i.e. iterator order is the set order by construction.
func TestMaterializeCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sets := randomSets(rng, 2+rng.Intn(40), 2, 25)
		for name, it := range iterators(sets[0], sets[1]) {
			got := collect(t, it)
			want := FromRegions(got.Regions()) // canonicalize a copy
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: non-canonical stream %v", trial, name, got.Regions())
			}
		}
	}
}
