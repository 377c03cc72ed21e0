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

// TestIteratorsMatchSetOps is the kernel-level differential: every streaming
// operator must reproduce its materializing counterpart exactly on random
// overlapping sets (the hard cases for the inclusion windows).
func TestIteratorsMatchSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		sets := randomSets(rng, 2+rng.Intn(40), 2, 30)
		R, S := sets[0], sets[1]
		cases := []struct {
			name string
			want Set
			got  Iterator
		}{
			{"union", R.Union(S), UnionIter(R.Iter(), S.Iter())},
			{"intersect", R.Intersect(S), IntersectIter(R.Iter(), S.Iter())},
			{"diff", R.Diff(S), DiffIter(R.Iter(), S.Iter())},
			{"including", R.Including(S), IncludingIter(R.Iter(), S.Iter())},
			{"self-including", R.Including(R), IncludingIter(R.Iter(), R.Iter())},
		}
		for _, c := range cases {
			if got := collect(t, c.got); !got.Equal(c.want) {
				t.Fatalf("trial %d %s: streaming %v, materializing %v\nR=%v\nS=%v",
					trial, c.name, got.Regions(), c.want.Regions(), R.Regions(), S.Regions())
			}
		}
	}
}

// TestIteratorTieCases pins the strictness ties the window iterator handles
// specially: identical regions in both operands, distinct regions sharing a
// Start or an End, and an empty region on an End.
func TestIteratorTieCases(t *testing.T) {
	R := mk(0, 10, 0, 4, 2, 10, 2, 4)
	if got := collect(t, IncludingIter(R.Iter(), R.Iter())); !got.Equal(R.Including(R)) {
		t.Errorf("⊃ ties: got %v, want %v", got.Regions(), R.Including(R).Regions())
	}
	// A lone region never strictly includes itself.
	one := mk(3, 7)
	if got := collect(t, IncludingIter(one.Iter(), one.Iter())); !got.IsEmpty() {
		t.Errorf("singleton ⊃ itself: got %v, want empty", got.Regions())
	}
	// An empty region on r.End is inside r, though it sorts after a
	// region that starts there.
	E := mk(0, 2, 2, 5, 2, 2)
	if got, want := collect(t, IncludingIter(E.Iter(), E.Iter())), NaiveIncluding(E, E); !got.Equal(want) {
		t.Errorf("⊃ with an empty region on an End: got %v, want %v", got.Regions(), want.Regions())
	}
}

// TestIteratorExhaustionSticky: once an iterator reports exhaustion, every
// later Next must report it again.
func TestIteratorExhaustionSticky(t *testing.T) {
	R, S := mk(0, 2, 4, 6), mk(1, 5)
	its := []Iterator{
		R.Iter(),
		UnionIter(R.Iter(), S.Iter()),
		IntersectIter(R.Iter(), S.Iter()),
		DiffIter(R.Iter(), S.Iter()),
		IncludingIter(R.Iter(), S.Iter()),
		IncludingSetIter(R, S.Iter()),
		FilterIter(R.Iter(), func(Region) bool { return true }),
	}
	for i, it := range its {
		for {
			if _, ok, err := it.Next(); err != nil {
				t.Fatalf("iterator %d: %v", i, err)
			} else if !ok {
				break
			}
		}
		for k := 0; k < 3; k++ {
			if _, ok, err := it.Next(); ok || err != nil {
				t.Fatalf("iterator %d: Next after exhaustion = (%v, %v)", i, ok, err)
			}
		}
		it.Close()
	}
}

// TestIteratorCloseAfterPartial: Close mid-stream is clean — idempotent,
// and Next afterwards reports exhaustion rather than resuming.
func TestIteratorCloseAfterPartial(t *testing.T) {
	R, S := mk(0, 10, 1, 3, 5, 9), mk(1, 3, 6, 8)
	it := UnionIter(DiffIter(R.Iter(), S.Iter()), IncludingIter(R.Iter(), S.Iter()))
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("first Next: (%v, %v)", ok, err)
	}
	it.Close()
	it.Close() // idempotent
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("Next after Close = (%v, %v), want exhausted", ok, err)
	}
}

// failingIter yields rs, then fails with err.
type failingIter struct {
	rs  []Region
	err error
}

func (f *failingIter) Next() (Region, bool, error) {
	if len(f.rs) == 0 {
		return Region{}, false, f.err
	}
	r := f.rs[0]
	f.rs = f.rs[1:]
	return r, true, nil
}

func (f *failingIter) Close() {}

// TestIteratorErrorSticky: an operand stream that fails aborts the merge or
// the probe, and the error is returned from every subsequent Next.
func TestIteratorErrorSticky(t *testing.T) {
	boom := errors.New("boom")
	R := mk(0, 10, 0, 4, 2, 3)
	fail := func() Iterator { return &failingIter{rs: R.Regions()[:1], err: boom} }
	for name, it := range map[string]Iterator{
		"⊃, failing left":        IncludingIter(fail(), R.Iter()),
		"⊃, failing right":       IncludingIter(R.Iter(), fail()),
		"⊃ probe, failing right": IncludingSetIter(mk(0, 10), fail()),
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
		it := UnionIter(
			IncludingIter(sets[0].Iter(), sets[1].Iter()),
			DiffIter(sets[1].Iter(), sets[0].Iter()),
		)
		got := collect(t, it)
		want := FromRegions(got.Regions()) // canonicalize a copy
		if !got.Equal(want) {
			t.Fatalf("trial %d: non-canonical stream %v", trial, got.Regions())
		}
	}
}
