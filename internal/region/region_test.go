package region

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mk(pairs ...int) Set {
	if len(pairs)%2 != 0 {
		panic("mk: odd number of endpoints")
	}
	rs := make([]Region, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		rs = append(rs, Of(pairs[i], pairs[i+1]))
	}
	return FromRegions(rs)
}

// TestRegionIsEightBytes guards the footprint every named set, cached
// answer and kernel buffer is sized by: two int32 endpoints.
func TestRegionIsEightBytes(t *testing.T) {
	if Bytes != 8 {
		t.Fatalf("a Region is %d bytes, want 8", Bytes)
	}
}

func TestRegionPredicates(t *testing.T) {
	a := Region{0, 10}
	b := Region{2, 5}
	c := Region{4, 12}
	if !a.Includes(b) || b.Includes(a) {
		t.Error("Includes")
	}
	if !a.Includes(a) {
		t.Error("Includes must be reflexive")
	}
	if a.StrictlyIncludes(a) {
		t.Error("StrictlyIncludes must be irreflexive")
	}
	if !a.StrictlyIncludes(b) {
		t.Error("StrictlyIncludes")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("Overlaps")
	}
	if a.Overlaps(b) {
		t.Error("nested regions do not Overlap")
	}
	if (Region{0, 2}).Overlaps(Region{2, 4}) {
		t.Error("touching regions do not Overlap")
	}
	if a.Len() != 10 {
		t.Error("Len")
	}
	if a.String() != "[0,10)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestBeforeOrder(t *testing.T) {
	// Outer regions sort before the regions they include.
	outer := Region{0, 10}
	inner := Region{0, 5}
	if !outer.Before(inner) || inner.Before(outer) {
		t.Error("same-start order must put larger region first")
	}
	if !(Region{1, 2}).Before(Region{3, 4}) {
		t.Error("start order")
	}
}

func TestFromRegionsSortsAndDedupes(t *testing.T) {
	s := mk(5, 9, 0, 10, 5, 9, 0, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := []Region{{0, 10}, {0, 3}, {5, 9}}
	for i, r := range want {
		if s.At(i) != r {
			t.Errorf("At(%d) = %v, want %v", i, s.At(i), r)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := mk(0, 10, 5, 9)
	if s.IsEmpty() || !Empty.IsEmpty() {
		t.Error("IsEmpty")
	}
	if !s.Contains(Region{5, 9}) || s.Contains(Region{5, 8}) {
		t.Error("Contains")
	}
	if !s.Equal(mk(5, 9, 0, 10)) || s.Equal(mk(0, 10)) {
		t.Error("Equal")
	}
	if s.String() != "{[0,10) [5,9)}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSetOps(t *testing.T) {
	a := mk(0, 10, 5, 9, 20, 30)
	b := mk(5, 9, 40, 50)
	if got := a.Union(b); !got.Equal(mk(0, 10, 5, 9, 20, 30, 40, 50)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(mk(5, 9)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(mk(0, 10, 20, 30)) {
		t.Errorf("Diff = %v", got)
	}
	if got := Empty.Union(a); !got.Equal(a) {
		t.Errorf("Empty.Union = %v", got)
	}
	if got := a.Diff(Empty); !got.Equal(a) {
		t.Errorf("Diff Empty = %v", got)
	}
	if got := a.Intersect(Empty); !got.IsEmpty() {
		t.Errorf("Intersect Empty = %v", got)
	}
}

func TestFilter(t *testing.T) {
	a := mk(0, 10, 5, 9, 20, 30)
	got := a.Filter(func(r Region) bool { return r.Len() > 4 })
	if !got.Equal(mk(0, 10, 20, 30)) {
		t.Errorf("Filter = %v", got)
	}
}

func TestInnermostOutermost(t *testing.T) {
	// Nested: [0,100) ⊃ [10,40) ⊃ [20,30); plus disjoint [50,60).
	s := mk(0, 100, 10, 40, 20, 30, 50, 60)
	if got := s.Outermost(); !got.Equal(mk(0, 100)) {
		t.Errorf("Outermost = %v", got)
	}
	if got := s.Innermost(); !got.Equal(mk(20, 30, 50, 60)) {
		t.Errorf("Innermost = %v", got)
	}
	if !Empty.Innermost().IsEmpty() || !Empty.Outermost().IsEmpty() {
		t.Error("empty set")
	}
}

func TestInnermostOutermostOverlapping(t *testing.T) {
	// Partially overlapping regions are both minimal and maximal.
	s := mk(0, 10, 5, 15)
	if got := s.Outermost(); !got.Equal(s) {
		t.Errorf("Outermost = %v", got)
	}
	if got := s.Innermost(); !got.Equal(s) {
		t.Errorf("Innermost = %v", got)
	}
}

// named is an instance's named sets: the regions ⊃d and ⊂d rule out
// between their operands.
type named []Set

// namedOf returns sets as an instance's named sets.
func namedOf(sets ...Set) named { return sets }

// all is the union of the named sets.
func (u named) all() Set {
	all := Empty
	for _, s := range u {
		all = all.Union(s)
	}
	return all
}

// directlyIncluding is R ⊃d S over u, with no cancellation.
func (u named) directlyIncluding(R, S Set) Set {
	out, _ := DirectlyIncluding(R, S, u, nil, nil)
	return out
}

// directlyIncluded is R ⊂d S over u, with no cancellation.
func (u named) directlyIncluded(R, S Set) Set {
	out, _ := DirectlyIncluded(R, S, u, nil, nil)
	return out
}

// nested reports whether the regions of all nest properly, by the
// definition: no two partially overlap, and the strict containers of each
// form a chain (an empty region where two regions touch lies inside both).
func nested(all Set) bool {
	for _, b := range all.Regions() {
		if !chained(all, b) {
			return false
		}
		for _, a := range all.Regions() {
			if a.Overlaps(b) {
				return false
			}
		}
	}
	return true
}

// chained reports whether the strict containers of b in all form a chain,
// every two of them nested.
func chained(all Set, b Region) bool {
	for _, a1 := range all.Regions() {
		for _, a2 := range all.Regions() {
			if a1.StrictlyIncludes(b) && a2.StrictlyIncludes(b) && !a1.Includes(a2) && !a2.Includes(a1) {
				return false
			}
		}
	}
	return true
}

// TestMergedMatchesUnion: the sweep's k-way merge holds every region of
// every set once per set, in set order, with the least source first in a
// run of equal regions and each region's source the set it came from.
func TestMergedMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		var sets []Set
		if trial%2 == 0 {
			sets = randomSets(rng, rng.Intn(40), 1+rng.Intn(5), 30)
		} else {
			sets = randomNestedSets(rng, 1+rng.Intn(5), 64)
		}
		if trial%3 == 0 { // a set held twice
			sets = append(sets, sets[0])
		}
		if trial%5 == 0 { // empty regions, which touching ones include
			p := rng.Intn(30)
			sets = append(sets, mk(p, p, p+1, p+1))
		}
		ks, src, err := merged(sets, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range sets {
			total += s.Len()
		}
		if len(ks) != total || len(src) != total || !fromSorted(slices.Compact(slices.Clone(ks))).Equal(namedOf(sets...).all()) {
			t.Fatalf("trial %d: merged %v, want the %d regions of %v", trial, ks, total, sets)
		}
		for k := range ks {
			if !sets[src[k]].Contains(ks[k]) {
				t.Fatalf("trial %d: %v from set %d, which does not hold it", trial, ks[k], src[k])
			}
			if k > 0 && (ks[k].Before(ks[k-1]) || ks[k] == ks[k-1] && src[k] <= src[k-1]) {
				t.Fatalf("trial %d: %v from %d after %v from %d", trial, ks[k], src[k], ks[k-1], src[k-1])
			}
		}
	}
}

// TestProperlyNested: on nested shapes and on each way a universe fails to
// nest — a partial overlap, an empty region where two regions touch — the
// sweep's ⊃d and ⊂d over every pair of single regions are the definition's.
func TestProperlyNested(t *testing.T) {
	for _, c := range []struct {
		u      named
		nested bool
	}{
		{namedOf(mk(0, 100, 10, 40, 20, 30, 50, 60)), true},
		{namedOf(mk(0, 10, 5, 15), mk(6, 8)), false},
		{namedOf(Empty), true},
		{namedOf(mk(0, 5, 5, 10)), true},
		{namedOf(mk(0, 5, 5, 10), mk(5, 5)), false},
		{namedOf(mk(0, 10, 0, 5)), true}, // same-start regions nest
	} {
		if got := nested(c.u.all()); got != c.nested {
			t.Errorf("%v: nested = %v, want %v", c.u, got, c.nested)
		}
		checkDirectPairs(t, "shape", c.u, mk(2, 3, 5, 5, 7, 9))
	}
}

func TestIncludingBasic(t *testing.T) {
	refs := mk(0, 100, 200, 300)
	names := mk(10, 20, 350, 360)
	if got := refs.Including(names); !got.Equal(mk(0, 100)) {
		t.Errorf("Including = %v", got)
	}
	if got := names.Included(refs); !got.Equal(mk(10, 20)) {
		t.Errorf("Included = %v", got)
	}
	if !Empty.Including(names).IsEmpty() || !refs.Including(Empty).IsEmpty() {
		t.Error("empty cases")
	}
	// Inclusion is strict: a set never includes itself region-by-region.
	if got := refs.Including(refs); !got.IsEmpty() {
		t.Errorf("self Including = %v, want empty (strict)", got)
	}
	if got := refs.Included(refs); !got.IsEmpty() {
		t.Errorf("self Included = %v, want empty (strict)", got)
	}
	// Nested same-set regions do relate.
	nested := mk(0, 10, 2, 8)
	if got := nested.Including(nested); !got.Equal(mk(0, 10)) {
		t.Errorf("nested self Including = %v", got)
	}
	if got := nested.Included(nested); !got.Equal(mk(2, 8)) {
		t.Errorf("nested self Included = %v", got)
	}
}

// TestDirectSweepCountsBlockerKernels: a ⊃d or ⊂d whose containers are
// not empty runs one c ⊃ S kernel per named set c for its blockers, and
// counts each; one with no container runs none.
func TestDirectSweepCountsBlockerKernels(t *testing.T) {
	ref, authors, name, last := mk(0, 100), mk(10, 60), mk(20, 50), mk(35, 45)
	u := namedOf(ref, authors, name, last)
	for _, c := range []struct {
		what string
		run  func(kernels *int) (Set, error)
		want int
	}{
		{"Authors ⊃d Name", func(k *int) (Set, error) { return DirectlyIncluding(authors, name, u, nil, k) }, len(u)},
		{"Name ⊂d Authors", func(k *int) (Set, error) { return DirectlyIncluded(name, authors, u, nil, k) }, len(u)},
		{"Last_Name ⊃d Reference", func(k *int) (Set, error) { return DirectlyIncluding(last, ref, u, nil, k) }, 0},
		{"Reference ⊂d Name", func(k *int) (Set, error) { return DirectlyIncluded(ref, name, u, nil, k) }, 0},
	} {
		kernels := 0
		if _, err := c.run(&kernels); err != nil || kernels != c.want {
			t.Errorf("%s: %d blocker kernels (err %v), want %d", c.what, kernels, err, c.want)
		}
	}
}

func TestDirectInclusionPaperExample(t *testing.T) {
	// Mimics the BIBTEX structure: Reference ⊃ Authors ⊃ Name ⊃ Last_Name.
	ref := mk(0, 100)
	authors := mk(10, 60)
	name := mk(20, 50)
	last := mk(35, 45)
	u := namedOf(ref, authors, name, last)
	if !nested(u.all()) {
		t.Fatal("universe should be properly nested")
	}
	// Direct inclusion holds only along parent edges.
	if got := u.directlyIncluding(authors, name); !got.Equal(authors) {
		t.Errorf("Authors ⊃d Name = %v", got)
	}
	if got := u.directlyIncluding(ref, name); !got.IsEmpty() {
		t.Errorf("Reference ⊃d Name = %v, want empty (Authors is between)", got)
	}
	if got := u.directlyIncluding(ref, authors); !got.Equal(ref) {
		t.Errorf("Reference ⊃d Authors = %v", got)
	}
	// Plain inclusion holds transitively.
	if got := ref.Including(last); !got.Equal(ref) {
		t.Errorf("Reference ⊃ Last_Name = %v", got)
	}
	// Dual.
	if got := u.directlyIncluded(name, authors); !got.Equal(name) {
		t.Errorf("Name ⊂d Authors = %v", got)
	}
	if got := u.directlyIncluded(name, ref); !got.IsEmpty() {
		t.Errorf("Name ⊂d Reference = %v, want empty", got)
	}
}

// TestUniverseParent: the direct container of an indexed region is its
// parent in the nesting, and a root or a region past every other has none.
func TestUniverseParent(t *testing.T) {
	u := namedOf(mk(0, 100, 10, 40, 20, 30, 50, 60))
	if got := u.directlyIncluding(u.all(), mk(20, 30)); !got.Equal(mk(10, 40)) {
		t.Errorf("U ⊃d [20,30) = %v, want [10,40)", got)
	}
	if got := u.directlyIncluding(u.all(), mk(0, 100)); !got.IsEmpty() {
		t.Errorf("U ⊃d the root = %v, want empty", got)
	}
	if got := u.directlyIncluding(u.all(), mk(999, 1000)); !got.IsEmpty() {
		t.Errorf("U ⊃d a region past the universe = %v, want empty", got)
	}
}

// TestBetween: a region with another between it and s includes s but not
// directly, whichever side of the universe it is on.
func TestBetween(t *testing.T) {
	u := namedOf(mk(0, 100, 10, 40, 20, 30))
	for _, c := range []struct {
		r, s   Set
		direct bool
	}{
		{mk(0, 100), mk(20, 30), false}, // [10,40) is between
		{mk(10, 40), mk(20, 30), true},  // parent and child
		{mk(20, 30), mk(0, 100), false}, // no inclusion
		{mk(5, 50), mk(20, 30), false},  // outside the universe, [10,40) between
		{mk(15, 35), mk(20, 30), true},  // outside the universe, inside [10,40)
		{mk(21, 35), mk(22, 24), true},  // both outside, [20,30) overlaps r
		{mk(19, 35), mk(22, 24), false}, // both outside, [20,30) between
	} {
		if got := !u.directlyIncluding(c.r, c.s).IsEmpty(); got != c.direct {
			t.Errorf("%v ⊃d %v non-empty = %v, want %v", c.r, c.s, got, c.direct)
		}
		if got := !u.directlyIncluded(c.s, c.r).IsEmpty(); got != c.direct {
			t.Errorf("%v ⊂d %v non-empty = %v, want %v", c.s, c.r, got, c.direct)
		}
	}
}

// randomSets generates n random regions split across k instance sets over
// positions [0, span). It intentionally produces overlapping regions.
func randomSets(rng *rand.Rand, n, k, span int) []Set {
	groups := make([][]Region, k)
	for i := 0; i < n; i++ {
		a := rng.Intn(span)
		b := rng.Intn(span)
		if a > b {
			a, b = b, a
		}
		g := rng.Intn(k)
		groups[g] = append(groups[g], Of(a, b+1))
	}
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = FromRegions(groups[i])
	}
	return sets
}

// randomNestedSets generates properly nested instance sets by recursively
// subdividing [0, span).
func randomNestedSets(rng *rand.Rand, k, span int) []Set {
	groups := make([][]Region, k)
	var subdivide func(lo, hi, depth int)
	subdivide = func(lo, hi, depth int) {
		if hi-lo < 2 || depth > 6 {
			return
		}
		g := rng.Intn(k)
		groups[g] = append(groups[g], Of(lo, hi))
		mid := lo + 1 + rng.Intn(hi-lo-1)
		if rng.Intn(3) > 0 {
			subdivide(lo, mid, depth+1)
		}
		if rng.Intn(3) > 0 {
			subdivide(mid, hi, depth+1)
		}
	}
	subdivide(0, span, 0)
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = FromRegions(groups[i])
	}
	return sets
}

func TestIncludingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		sets := randomSets(rng, 2+rng.Intn(30), 2, 40)
		R, S := sets[0], sets[1]
		if got, want := R.Including(S), NaiveIncluding(R, S); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v S=%v: Including=%v want %v", trial, R, S, got, want)
		}
		if got, want := R.Included(S), NaiveIncluded(R, S); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v S=%v: Included=%v want %v", trial, R, S, got, want)
		}
		// Sets sharing regions stress the strictness corner cases.
		U := R.Union(S)
		if got, want := U.Including(U), NaiveIncluding(U, U); !got.Equal(want) {
			t.Fatalf("trial %d self: U=%v: Including=%v want %v", trial, U, got, want)
		}
		if got, want := U.Included(U), NaiveIncluded(U, U); !got.Equal(want) {
			t.Fatalf("trial %d self: U=%v: Included=%v want %v", trial, U, got, want)
		}
	}
}

func TestInnermostOutermostMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		sets := randomSets(rng, 2+rng.Intn(30), 1, 40)
		R := sets[0]
		if got, want := R.Innermost(), NaiveInnermost(R); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v: Innermost=%v want %v", trial, R, got, want)
		}
		if got, want := R.Outermost(), NaiveOutermost(R); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v: Outermost=%v want %v", trial, R, got, want)
		}
	}
}

func TestDirectInclusionMatchesNaiveOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		sets := randomSets(rng, 3+rng.Intn(25), 3, 30)
		R, S := sets[0], sets[1]
		u := namedOf(sets...)
		all := u.all()
		if got, want := u.directlyIncluding(R, S), NaiveDirectlyIncluding(R, S, all); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v S=%v U=%v: ⊃d=%v want %v", trial, R, S, all, got, want)
		}
		if got, want := u.directlyIncluded(R, S), NaiveDirectlyIncluded(R, S, all); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v S=%v U=%v: ⊂d=%v want %v", trial, R, S, all, got, want)
		}
	}
}

func TestDirectInclusionMatchesNaiveNested(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		sets := randomNestedSets(rng, 3, 64)
		R, S := sets[0], sets[1]
		u := namedOf(sets...)
		if !nested(u.all()) {
			t.Fatalf("trial %d: generator produced overlap", trial)
		}
		all := u.all()
		if got, want := u.directlyIncluding(R, S), NaiveDirectlyIncluding(R, S, all); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v S=%v U=%v: ⊃d=%v want %v", trial, R, S, all, got, want)
		}
		if got, want := u.directlyIncluded(R, S), NaiveDirectlyIncluded(R, S, all); !got.Equal(want) {
			t.Fatalf("trial %d: R=%v S=%v U=%v: ⊂d=%v want %v", trial, R, S, all, got, want)
		}
		// Word points: non-empty spans no named set holds, on both sides:
		// containers that never block, and regions contained in others.
		W := outside(rng, all, 20, 64)
		for _, p := range [][2]Set{{R, W}, {W, R}, {W, W}, {W.Union(R), S}} {
			if got, want := u.directlyIncluding(p[0], p[1]), NaiveDirectlyIncluding(p[0], p[1], all); !got.Equal(want) {
				t.Fatalf("trial %d: U=%v: %v ⊃d %v = %v, want %v", trial, all, p[0], p[1], got, want)
			}
			if got, want := u.directlyIncluded(p[1], p[0]), NaiveDirectlyIncluded(p[1], p[0], all); !got.Equal(want) {
				t.Fatalf("trial %d: U=%v: %v ⊂d %v = %v, want %v", trial, all, p[1], p[0], got, want)
			}
		}
		checkDirectPairs(t, fmt.Sprintf("trial %d", trial), u, W)
	}
}

// outside draws about n non-empty spans over [0, span) that are not in all.
func outside(rng *rand.Rand, all Set, n, span int) Set {
	var rs []Region
	for i := 0; i < n; i++ {
		a := rng.Intn(span)
		if r := Of(a, a+1+rng.Intn(span-a)); !all.Contains(r) {
			rs = append(rs, r)
		}
	}
	return FromRegions(rs)
}

// checkDirectPairs runs ⊃d and ⊂d on every pair of single regions r and s
// of the universe and of S against the definition: r ⊋ s with no universe
// region strictly between them.
func checkDirectPairs(t *testing.T, where string, u named, S Set) {
	t.Helper()
	all := u.all()
	rs := all.Union(S).Regions()
	for _, r := range rs {
		for _, s := range rs {
			want := r.StrictlyIncludes(s)
			for _, m := range all.Regions() {
				want = want && !(r.StrictlyIncludes(m) && m.StrictlyIncludes(s))
			}
			R, S := Set{regions: []Region{r}}, Set{regions: []Region{s}}
			if got := !u.directlyIncluding(R, S).IsEmpty(); got != want {
				t.Fatalf("%s: U=%v: %v ⊃d %v non-empty = %v, want %v", where, all, r, s, got, want)
			}
			if got := !u.directlyIncluded(S, R).IsEmpty(); got != want {
				t.Fatalf("%s: U=%v: %v ⊂d %v non-empty = %v, want %v", where, all, s, r, got, want)
			}
		}
	}
}

// TestEmptyRegionWhereTwoTouch: an empty region on the boundary of two
// touching regions lies inside both, so both include it directly: the case
// the sweep decides by the definition.
func TestEmptyRegionWhereTwoTouch(t *testing.T) {
	left, right, e := mk(0, 5), mk(5, 10), mk(5, 5)
	u := namedOf(left, right, e)
	if nested(u.all()) {
		t.Error("a universe with an empty region inside two touching ones reported nested")
	}
	all := u.all()
	for _, c := range []struct{ R, S Set }{
		{left, e}, {right, e}, {all, e}, {all, all},
	} {
		if got, want := u.directlyIncluding(c.R, c.S), NaiveDirectlyIncluding(c.R, c.S, all); !got.Equal(want) || want.IsEmpty() {
			t.Errorf("%v ⊃d %v = %v, want %v", c.R, c.S, got, want)
		}
		if got, want := u.directlyIncluded(c.S, c.R), NaiveDirectlyIncluded(c.S, c.R, all); !got.Equal(want) || want.IsEmpty() {
			t.Errorf("%v ⊂d %v = %v, want %v", c.S, c.R, got, want)
		}
	}
	// The same empty span outside a nested universe.
	u = namedOf(left, right)
	if !nested(u.all()) {
		t.Fatal("touching regions are nested")
	}
	if got, want := u.directlyIncluding(u.all(), e), u.all(); !got.Equal(want) {
		t.Errorf("%v ⊃d %v = %v, want %v", u.all(), e, got, want)
	}
	if got := u.directlyIncluded(e, left); !got.Equal(e) {
		t.Errorf("%v ⊂d %v = %v, want %v", e, left, got, e)
	}
	checkDirectPairs(t, "touching", u, e)
}

func TestSetAlgebraLaws(t *testing.T) {
	// Property-based checks of the boolean-algebra laws over region sets.
	gen := func(vals []int) Set {
		rs := make([]Region, 0, len(vals)/2)
		for i := 0; i+1 < len(vals); i += 2 {
			a := abs(vals[i]) % 50
			b := abs(vals[i+1]) % 50
			if a > b {
				a, b = b, a
			}
			rs = append(rs, Of(a, b+1))
		}
		return FromRegions(rs)
	}
	f := func(xs, ys, zs []int) bool {
		a, b, c := gen(xs), gen(ys), gen(zs)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			return false
		}
		if !a.Intersect(b.Intersect(c)).Equal(a.Intersect(b).Intersect(c)) {
			return false
		}
		// De Morgan relative to a: a − (b ∪ c) = (a − b) ∩ (a − c).
		if !a.Diff(b.Union(c)).Equal(a.Diff(b).Intersect(a.Diff(c))) {
			return false
		}
		if !a.Diff(b.Intersect(c)).Equal(a.Diff(b).Union(a.Diff(c))) {
			return false
		}
		// Idempotence and identity.
		if !a.Union(a).Equal(a) || !a.Intersect(a).Equal(a) || !a.Diff(a).IsEmpty() {
			return false
		}
		// Distribution of ⊃ over ∪ in the left argument.
		if !a.Union(b).Including(c).Equal(a.Including(c).Union(b.Including(c))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
