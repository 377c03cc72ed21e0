package region

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The probe kernels are selected on the operands' disjoint flag and only
// pay off at operand ratios the qgen corpora never reach, so the
// differential harness does not exercise them. These seeded property tests
// do: every shape of operand crossed with every size ratio and every way
// the two operands can share regions, against the definition-chasing Naive
// kernels, for the set kernels and for the stream operators drained.

// shape names one way a generated set can be laid out. Positions come from
// a small grid so that shared Starts, shared Ends and empty regions sitting
// exactly on a boundary are common rather than lucky.
type shape int

const (
	shapeDisjoint    shape = iota // gaps ≥ 0, lengths ≥ 1
	shapeZeroLength               // disjoint, with empty regions on and off boundaries
	shapeNested                   // self-nested: regions inside regions
	shapeOverlap                  // partial overlaps
	shapeSharedStart              // several regions per Start
	numShapes
)

func (s shape) String() string {
	return [...]string{"disjoint", "zero-length", "nested", "overlap", "shared-start"}[s]
}

func genSet(rng *rand.Rand, sh shape, n int) Set {
	var rs []Region
	pos := rng.Intn(3)
	for len(rs) < n {
		switch sh {
		case shapeDisjoint:
			l := 1 + rng.Intn(4)
			rs = append(rs, Of(pos, pos+l))
			pos += l + rng.Intn(3)
		case shapeZeroLength:
			l := rng.Intn(3)
			rs = append(rs, Of(pos, pos+l))
			pos += l
			if l == 0 || rng.Intn(2) == 0 {
				pos += 1 + rng.Intn(2) // an empty region never shares its Start
			}
		case shapeNested:
			l := 2 + rng.Intn(12)
			rs = append(rs, Of(pos, pos+l))
			for in, at := rng.Intn(4), pos; in > 0 && len(rs) < n; in-- {
				il := 1 + rng.Intn(l)
				at += rng.Intn(l - il + 1)
				rs = append(rs, Of(at, at+il))
				l = il
			}
			pos += 2 + rng.Intn(12)
		case shapeOverlap:
			rs = append(rs, Of(pos, pos+rng.Intn(8)))
			pos += rng.Intn(4)
		case shapeSharedStart:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				rs = append(rs, Of(pos, pos+rng.Intn(6)))
			}
			pos += rng.Intn(4)
		}
	}
	return FromRegions(rs)
}

// sample returns a random subset of s holding about one region in every.
func sample(rng *rand.Rand, s Set, every int) Set {
	return s.Filter(func(Region) bool { return rng.Intn(every) == 0 })
}

func bruteDisjoint(s Set) bool {
	rs := s.Regions()
	for i, r := range rs {
		if r.End < r.Start {
			return false
		}
		for _, t := range rs[i+1:] {
			if r.End > t.Start {
				return false
			}
		}
	}
	return true
}

func checkFlag(t *testing.T, what string, s Set) {
	t.Helper()
	if s.Disjoint() != bruteDisjoint(s) {
		t.Fatalf("%s: Disjoint() = %v, brute force says %v: %v", what, s.Disjoint(), !s.Disjoint(), s)
	}
}

// operandPairs yields (R, S) for one pair of shapes: every size ratio, then
// the ways the operands can share regions — S drawn from R, R drawn from S,
// the same set twice.
func operandPairs(rng *rand.Rand, shR, shS shape) [][2]Set {
	var out [][2]Set
	for _, n := range [][2]int{{40, 40}, {3, 300}, {300, 3}, {0, 50}, {50, 0}, {1, 50}, {50, 1}} {
		out = append(out, [2]Set{genSet(rng, shR, n[0]), genSet(rng, shS, n[1])})
	}
	big := genSet(rng, shR, 200)
	out = append(out,
		[2]Set{big, sample(rng, big, 20)},                            // S ⊆ R, 1:20
		[2]Set{sample(rng, big, 20), big},                            // R ⊆ S
		[2]Set{big, big},                                             // every r is an s
		[2]Set{big.Union(genSet(rng, shS, 20)), sample(rng, big, 3)}, // some self-matches, some not
	)
	return out
}

func TestProbeKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 6; round++ {
		for shR := shape(0); shR < numShapes; shR++ {
			for shS := shape(0); shS < numShapes; shS++ {
				for i, p := range operandPairs(rng, shR, shS) {
					R, S := p[0], p[1]
					where := fmt.Sprintf("round %d R=%v S=%v pair %d", round, shR, shS, i)
					checkFlag(t, where+" R", R)
					checkFlag(t, where+" S", S)
					checkInclusion(t, where, R, S)
				}
			}
		}
	}
}

func checkInclusion(t *testing.T, where string, R, S Set) {
	t.Helper()
	wantIng, wantEd := NaiveIncluding(R, S), NaiveIncluded(R, S)
	cases := []struct {
		name string
		want Set
		got  func() Set
	}{
		{"Including", wantIng, func() Set { return R.Including(S) }},
		{"Included", wantEd, func() Set { return R.Included(S) }},
		{"IncludingIter", wantIng, func() Set { return collect(t, IncludingIter(R.Iter(), S.Iter())) }},
	}
	if R.Disjoint() {
		cases = append(cases, struct {
			name string
			want Set
			got  func() Set
		}{"IncludingSetIter", wantIng, func() Set { return collect(t, IncludingSetIter(R, S.Iter())) }})
	}
	for _, c := range cases {
		got := c.got()
		if !got.Equal(c.want) {
			t.Fatalf("%s %s: got %v\nwant %v\nR=%v\nS=%v", where, c.name, got, c.want, R, S)
		}
		checkFlag(t, where+" "+c.name, got)
	}
	// Every kernel that builds a set establishes the flag.
	for name, s := range map[string]Set{
		"Union": R.Union(S), "Intersect": R.Intersect(S), "Diff": R.Diff(S),
		"Innermost": R.Innermost(), "Outermost": R.Outermost(),
		"Filter": R.Filter(func(r Region) bool { return r.Len()%2 == 0 }),
	} {
		checkFlag(t, where+" "+name, s)
	}
}

// TestDirectInclusionMatchesNaiveOnShapes runs checkDirect on small
// operands of every pair of shapes: empty regions on shared boundaries,
// shared Starts and partial overlaps, inside the universe and out of it.
func TestDirectInclusionMatchesNaiveOnShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 20; round++ {
		for shR := shape(0); shR < numShapes; shR++ {
			for shS := shape(0); shS < numShapes; shS++ {
				R, S := genSet(rng, shR, 1+rng.Intn(30)), genSet(rng, shS, 1+rng.Intn(30))
				checkDirect(t, fmt.Sprintf("round %d R=%v S=%v", round, shR, shS), R, S)
			}
		}
	}
}

// TestProbeKernelsCoverEveryPath makes sure the generator above reaches
// each of the five algorithms behind Including and Included, so a green
// differential means something for all of them.
func TestProbeKernelsCoverEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	big, small := genSet(rng, shapeDisjoint, 300), genSet(rng, shapeDisjoint, 3)
	nested := genSet(rng, shapeNested, 50)
	if !big.Disjoint() || !small.Disjoint() || nested.Disjoint() {
		t.Fatalf("generator shapes: disjoint %v %v, nested %v", big.Disjoint(), small.Disjoint(), nested.Disjoint())
	}
	for _, c := range []struct {
		name string
		R, S Set
	}{
		{"disjoint R, small S: driven from S", big, small},
		{"small R, disjoint S: driven from R", small, big},
		{"disjoint R, nested S", big, nested},
		{"nested R, disjoint S", nested, big},
		{"neither disjoint: the sweeps", nested, nested},
	} {
		if got, want := c.R.Including(c.S), NaiveIncluding(c.R, c.S); !got.Equal(want) {
			t.Errorf("%s: ⊃ got %v want %v", c.name, got, want)
		}
		if got, want := c.R.Included(c.S), NaiveIncluded(c.R, c.S); !got.Equal(want) {
			t.Errorf("%s: ⊂ got %v want %v", c.name, got, want)
		}
	}
}

// TestProbeBoundaryCases pins the cases the walkers treat specially.
func TestProbeBoundaryCases(t *testing.T) {
	R := mk(3, 5, 5, 8, 8, 8, 10, 12)
	for _, c := range []struct {
		name string
		S    Set
	}{
		{"empty s on a shared boundary has two containers", mk(5, 5)},
		{"and is reported after the s that starts with it", mk(5, 6, 5, 5)},
		{"s equal to r is no container of itself", mk(5, 8)},
		{"an empty r is included by the region ending there", mk(8, 8)},
		{"s past the end of R", mk(20, 21)},
		{"s before the start of R", mk(0, 1)},
		{"s spanning two regions", mk(4, 6)},
	} {
		if got, want := R.Including(c.S), NaiveIncluding(R, c.S); !got.Equal(want) {
			t.Errorf("%s: R ⊃ S = %v, want %v", c.name, got, want)
		}
		if got, want := collect(t, IncludingSetIter(R, c.S.Iter())), NaiveIncluding(R, c.S); !got.Equal(want) {
			t.Errorf("%s: stream R ⊃ S = %v, want %v", c.name, got, want)
		}
		if got, want := R.Included(c.S), NaiveIncluded(R, c.S); !got.Equal(want) {
			t.Errorf("%s: R ⊂ S = %v, want %v", c.name, got, want)
		}
		if got, want := c.S.Included(R), NaiveIncluded(c.S, R); !got.Equal(want) {
			t.Errorf("%s: S ⊂ R = %v, want %v", c.name, got, want)
		}
		if got, want := c.S.Including(R), NaiveIncluding(c.S, R); !got.Equal(want) {
			t.Errorf("%s: S ⊃ R = %v, want %v", c.name, got, want)
		}
	}
}

// TestSetIterStopsPullingPastTheSet: once the stream is past the last
// region of the set nothing more can match, and the operator stops pulling
// — what the merge iterator does when its left side runs out.
func TestSetIterStopsPullingPastTheSet(t *testing.T) {
	R := mk(0, 4, 6, 9)
	S := mk(1, 2, 7, 8, 20, 21, 30, 31, 40, 41)
	pulled := &countingIter{it: S.Iter()}
	collect(t, IncludingSetIter(R, pulled))
	if pulled.n != 3 { // the two inside R and the first past it
		t.Errorf("IncludingSetIter pulled %d regions of S, want 3", pulled.n)
	}
	if !pulled.closed {
		t.Error("IncludingSetIter did not close its operand")
	}
}

// countingPoints counts the occurrences a kernel reads.
type countingPoints struct {
	Set
	read map[int]bool
}

func (c countingPoints) At(i int) Region { c.read[i] = true; return c.Set.At(i) }

// TestHoldingIterIsLazy: a consumer that stops after the first holder has
// paid for the occurrences up to it, not for the posting list.
func TestHoldingIterIsLazy(t *testing.T) {
	outer, inner := benchSets(100, 3)
	pts := countingPoints{Set: inner, read: map[int]bool{}}
	it := HoldingIter(outer, pts, nil)
	if r, ok, err := it.Next(); !ok || err != nil || r != outer.At(0) {
		t.Fatalf("first holder = %v, %v, %v", r, ok, err)
	}
	it.Close()
	if len(pts.read) != 1 {
		t.Errorf("the first holder cost %d of %d occurrences, want 1", len(pts.read), inner.Len())
	}
	if _, ok, err := it.Next(); ok || err != nil {
		t.Errorf("Next after Close = %v, %v", ok, err)
	}
}

type countingIter struct {
	it     Iterator
	n      int
	closed bool
}

func (c *countingIter) Next() (Region, bool, error) {
	r, ok, err := c.it.Next()
	if ok {
		c.n++
	}
	return r, ok, err
}

func (c *countingIter) Close() { c.closed = true; c.it.Close() }

// genPoints generates word occurrences: non-empty, disjoint regions. A Set
// is a Points.
func genPoints(rng *rand.Rand, n int) Set { return genSet(rng, shapeDisjoint, n) }

func TestHoldingMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 40; round++ {
		for sh := shape(0); sh < numShapes; sh++ {
			for _, n := range [][2]int{{40, 40}, {300, 3}, {3, 300}, {0, 10}, {10, 0}, {1, 1}} {
				s, pts := genSet(rng, sh, n[0]), genPoints(rng, n[1])
				want := s.Filter(func(r Region) bool {
					for _, p := range pts.Regions() {
						if r.Includes(p) {
							return true
						}
					}
					return false
				})
				got, err := s.Holding(pts, nil)
				if err != nil || !got.Equal(want) {
					t.Fatalf("%v %v: Holding = %v (err %v)\nwant %v\ns=%v\npts=%v", sh, n, got, err, want, s, pts)
				}
				checkFlag(t, "Holding", got)
				if s.Disjoint() {
					if got := collect(t, HoldingIter(s, pts, nil)); !got.Equal(want) {
						t.Fatalf("%v %v: HoldingIter = %v\nwant %v\ns=%v\npts=%v", sh, n, got, want, s, pts)
					}
				}
			}
		}
	}
}

func TestFromOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for sh := shape(0); sh < numShapes; sh++ {
		want := genSet(rng, sh, 60)
		ordered := append([]Region(nil), want.Regions()...)
		if got := FromOrdered(ordered); !got.Equal(want) || got.Disjoint() != want.Disjoint() {
			t.Errorf("%v: FromOrdered of a set's own regions differs from the set", sh)
		}
		shuffled := append([]Region(nil), want.Regions()...)
		shuffled = append(shuffled, shuffled[:10]...) // duplicates too
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := FromOrdered(shuffled)
		if !got.Equal(want) {
			t.Errorf("%v: FromOrdered did not repair a false claim of order", sh)
		}
		checkFlag(t, "FromOrdered", got)
	}
	if !FromOrdered(nil).IsEmpty() {
		t.Error("FromOrdered(nil) is not empty")
	}
}

func TestPick(t *testing.T) {
	s := mk(0, 2, 3, 5, 6, 9, 10, 11)
	got, err := s.Pick([]int32{1, 3}, nil)
	if err != nil || !got.Equal(mk(3, 5, 10, 11)) || !got.Disjoint() {
		t.Errorf("Pick = %v (err %v)", got, err)
	}
	if got, _ := s.Pick(nil, nil); !got.IsEmpty() {
		t.Errorf("Pick of nothing = %v", got)
	}
}

// skewedSets is the operand pair of the complexity pins and the skewed
// benchmarks: big disjoint regions, each holding children regions, of
// which one in every is kept for the small side.
func skewedSets(big, children, every int) (outer, inner, few Set) {
	outer, inner = benchSets(big, children)
	i := 0
	few = inner.Filter(func(Region) bool { i++; return i%every == 0 })
	return outer, inner, few
}

// TestSelectiveKernelsAllocateForTheAnswer: a 20 000-region disjoint set
// against a 10-region operand allocates what the 10 answers need. The
// sweeps allocated a full-size output buffer, 320 KB a call.
func TestSelectiveKernelsAllocateForTheAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not deterministic under the race detector")
	}
	outer, inner, _ := skewedSets(20000, 3, 1)
	few := inner.Filter(func(r Region) bool { return r.Start%(2000*45) == 2 })
	fewOuter := outer.Filter(func(r Region) bool { return r.Start%(2000*45) == 0 })
	if few.Len() != 10 || fewOuter.Len() != 10 {
		t.Fatalf("fixture: %d inner and %d outer regions picked, want 10 and 10", few.Len(), fewOuter.Len())
	}
	for _, c := range []struct {
		name string
		run  func() Set
		want int
	}{
		{"big ⊃ few", func() Set { return outer.Including(few) }, 10},
		{"few ⊂ big", func() Set { return few.Included(outer) }, 10},
		{"big ⊂ few", func() Set { return inner.Included(fewOuter) }, 30},
		{"few ⊃ big", func() Set { return fewOuter.Including(inner) }, 10},
		{"big holding few points", func() Set { s, _ := outer.Holding(few, nil); return s }, 10},
	} {
		if got := c.run().Len(); got != c.want {
			t.Fatalf("%s: %d regions, want %d", c.name, got, c.want)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.run()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		// Bytes a region; a few hundred bytes of slack for growth
		// steps and the interface box Holding takes its points in.
		if limit := uint64(Bytes*c.want*3 + 256); perCall > limit {
			t.Errorf("%s: %d bytes allocated per call, want at most %d (the answer is %d regions)", c.name, perCall, limit, c.want)
		}
	}
}

// TestSelectiveKernelsPollForTheSmallSide: the Checker is polled once per
// pollStride regions of the operand that drives, which is the small one.
func TestSelectiveKernelsPollForTheSmallSide(t *testing.T) {
	outer, inner, few := skewedSets(20000, 3, 6000)
	fewOuter := sample(rand.New(rand.NewSource(1)), outer, 2000)
	polls := 0
	count := func() error { polls++; return nil }
	for _, c := range []struct {
		name  string
		run   func() error
		small int
	}{
		{"big ⊃ few", func() error { _, err := outer.IncludingCtl(few, count); return err }, few.Len()},
		{"few ⊂ big", func() error { _, err := few.IncludedCtl(outer, count); return err }, few.Len()},
		{"big ⊂ few", func() error { _, err := inner.IncludedCtl(fewOuter, count); return err }, fewOuter.Len()},
		{"few ⊃ big", func() error { _, err := fewOuter.IncludingCtl(inner, count); return err }, fewOuter.Len()},
		{"big holding few points", func() error { _, err := outer.Holding(few, count); return err }, few.Len()},
	} {
		polls = 0
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		if want := (c.small + pollStride - 1) / pollStride; polls != want {
			t.Errorf("%s: %d polls for a small side of %d regions, want %d (the big side would take %d)",
				c.name, polls, c.small, want, (outer.Len()+pollStride-1)/pollStride)
		}
	}
}

// TestDirectKernelsDoNotAllocatePerRegion: the sweep allocates per call
// and per named set, never per region. A call makes a fixed few — the
// merge's two slices, the sweep, its stack, the marks and the answer — and
// each set it merges (R ⊃ S and c ⊃ S for each named c) adds its ⊃ answer
// and the growth of the lists that hold the sets. A slice-per-region
// version made 11 850 allocations per operation at 20 000 references.
func TestDirectKernelsDoNotAllocatePerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	const perCall, perSet = 6, 3
	outer, inner := benchSets(2000, 5)
	outer2, inner2 := benchSets(2000, 2)
	for _, u := range []named{namedOf(outer, inner), namedOf(outer, inner, outer2, inner2, outer2, inner2)} {
		ceiling := float64(perCall + perSet*(1+len(u)))
		ing := testing.AllocsPerRun(10, func() { u.directlyIncluding(outer, inner) })
		ed := testing.AllocsPerRun(10, func() { u.directlyIncluded(inner, outer) })
		t.Logf("allocations per call over %d regions and %d named sets: ⊃d %.0f, ⊂d %.0f", inner.Len(), len(u), ing, ed)
		if ing > ceiling {
			t.Errorf("DirectlyIncluding over %d named sets: %.0f allocations per call, want at most %.0f", len(u), ing, ceiling)
		}
		if ed > ceiling {
			t.Errorf("DirectlyIncluded over %d named sets: %.0f allocations per call, want at most %.0f", len(u), ed, ceiling)
		}
	}
}
