package region

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Regions hold int32 endpoints, and an accepted document may be
// math.MaxInt32 bytes long, so a region can end exactly there. These tests
// run every set kernel and iterator on sets that touch both ends of the
// range against the Naive kernels and the definitions: a sentinel chosen
// at the edge of int32 rather than outside it (a starting minimum of
// MaxInt32, say) drops a region that sits on that edge.

const top = math.MaxInt32

// edgeRegions are the regions every boundary shape is made of: empty
// regions on both ends, regions one byte from the top, and two nested
// regions spanning nearly the whole range.
var edgeRegions = []Region{
	{0, 0}, {0, 1}, {0, top}, {1, top - 1},
	{top - 1, top - 1}, {top - 1, top}, {top, top},
}

// edgeSubset is the subset of edgeRegions the bits of mask select.
func edgeSubset(mask int) Set {
	var rs []Region
	for i, r := range edgeRegions {
		if mask&(1<<i) != 0 {
			rs = append(rs, r)
		}
	}
	return FromRegions(rs)
}

// toTop shifts the regions of sets by the one offset that makes the
// largest End among them math.MaxInt32.
func toTop(sets ...Set) []Set {
	var end int32
	for _, s := range sets {
		for _, r := range s.Regions() {
			end = max(end, r.End)
		}
	}
	d := top - end
	out := make([]Set, len(sets))
	for i, s := range sets {
		rs := make([]Region, 0, s.Len())
		for _, r := range s.Regions() {
			rs = append(rs, Region{r.Start + d, r.End + d})
		}
		out[i] = FromRegions(rs)
	}
	return out
}

// points picks from s a run of non-empty, pairwise disjoint regions in set
// order: the shape of a posting list, for the σ_w kernels.
func points(s Set) Set {
	var rs []Region
	for _, r := range s.Regions() {
		if r.Len() > 0 && (len(rs) == 0 || rs[len(rs)-1].End <= r.Start) {
			rs = append(rs, r)
		}
	}
	return FromRegions(rs)
}

// naiveHolding is σ_w by definition: the regions of s that include some
// occurrence, equality included.
func naiveHolding(s, pts Set) Set {
	return s.Filter(func(r Region) bool {
		for _, p := range pts.Regions() {
			if r.Includes(p) {
				return true
			}
		}
		return false
	})
}

// kernelCase is one kernel's answer beside what its definition gives.
type kernelCase struct {
	name      string
	got, want Set
}

// checkEdge runs every kernel on (R, S) against its definition.
func checkEdge(t *testing.T, where string, R, S Set) {
	t.Helper()
	checkInclusion(t, where, R, S)
	inS := func(r Region) bool { return S.Contains(r) }
	wantUnion := FromRegions(append(append([]Region(nil), R.Regions()...), S.Regions()...))
	wantIntersect := R.Filter(inS)
	wantDiff := R.Filter(func(r Region) bool { return !inS(r) })
	pts := points(S)
	wantHolding := naiveHolding(R, pts)
	cases := []kernelCase{
		{"Innermost", R.Innermost(), NaiveInnermost(R)},
		{"Outermost", R.Outermost(), NaiveOutermost(R)},
		{"Union", R.Union(S), wantUnion},
		{"UnionIter", collect(t, UnionIter(R.Iter(), S.Iter())), wantUnion},
		{"Intersect", R.Intersect(S), wantIntersect},
		{"IntersectIter", collect(t, IntersectIter(R.Iter(), S.Iter())), wantIntersect},
		{"Diff", R.Diff(S), wantDiff},
		{"DiffIter", collect(t, DiffIter(R.Iter(), S.Iter())), wantDiff},
	}
	holding, err := R.Holding(pts, nil)
	if err != nil {
		t.Fatalf("%s Holding: %v", where, err)
	}
	cases = append(cases, kernelCase{"Holding", holding, wantHolding})
	if R.Disjoint() {
		cases = append(cases, kernelCase{"HoldingIter", collect(t, HoldingIter(R, pts, nil)), wantHolding})
	}
	for _, c := range cases {
		if !c.got.Equal(c.want) {
			t.Fatalf("%s %s: got %v\nwant %v\nR=%v\nS=%v", where, c.name, c.got, c.want, R, S)
		}
		checkFlag(t, where+" "+c.name, c.got)
	}
}

// checkDirect runs ⊃d and ⊂d both ways against their definitions with R
// and S both named; with R alone named, so that the regions of S it does
// not hold never block; and with S alone named, so that the containers of
// R it does not hold never block.
func checkDirect(t *testing.T, where string, R, S Set) {
	t.Helper()
	for _, c := range []struct {
		u    named
		R, S Set
	}{
		{namedOf(R, S), R, S}, {namedOf(R, S), S, R}, {namedOf(R), R, S}, {namedOf(S), R, S},
	} {
		all := c.u.all()
		if got, want := c.u.directlyIncluding(c.R, c.S), NaiveDirectlyIncluding(c.R, c.S, all); !got.Equal(want) {
			t.Fatalf("%s: U=%v: %v ⊃d %v = %v, want %v", where, all, c.R, c.S, got, want)
		}
		if got, want := c.u.directlyIncluded(c.S, c.R), NaiveDirectlyIncluded(c.S, c.R, all); !got.Equal(want) {
			t.Fatalf("%s: U=%v: %v ⊂d %v = %v, want %v", where, all, c.S, c.R, got, want)
		}
	}
}

// TestKernelsAtTheEdgesOfInt32 crosses every subset of edgeRegions with
// every other: each kernel meets regions that start or end at 0,
// MaxInt32-1 and MaxInt32, empty regions on those boundaries, disjoint and
// self-nested operands.
func TestKernelsAtTheEdgesOfInt32(t *testing.T) {
	n := 1 << len(edgeRegions)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			where := fmt.Sprintf("subsets %#x, %#x", a, b)
			checkEdge(t, where, edgeSubset(a), edgeSubset(b))
			checkDirect(t, where, edgeSubset(a), edgeSubset(b))
		}
	}
}

// TestGeneratedShapesAtTheEdgesOfInt32 takes the generated operand pairs
// of the probe tests, every shape against every shape, and runs them at
// the bottom of the range, shifted to its top, and as both at once, with
// the whole range between the two halves for the galloping searches to
// cross.
func TestGeneratedShapesAtTheEdgesOfInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for shR := shape(0); shR < numShapes; shR++ {
		for shS := shape(0); shS < numShapes; shS++ {
			for i, p := range operandPairs(rng, shR, shS) {
				R, S := p[0], p[1]
				hi := toTop(R, S)
				where := fmt.Sprintf("R=%v S=%v pair %d", shR, shS, i)
				checkEdge(t, where+" at 0", R, S)
				checkEdge(t, where+" at MaxInt32", hi[0], hi[1])
				checkEdge(t, where+" at both", R.Union(hi[0]), S.Union(hi[1]))
			}
		}
	}
}
