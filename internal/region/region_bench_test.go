package region

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSets builds a realistic nested workload: nOuter disjoint containers
// each holding nInner disjoint children.
func benchSets(nOuter, nInner int) (outer, inner Set) {
	span := 10 * (nInner + 1)
	var os, is []Region
	for i := 0; i < nOuter; i++ {
		base := i * (span + 5)
		os = append(os, Of(base, base+span))
		for j := 0; j < nInner; j++ {
			s := base + 2 + j*10
			is = append(is, Of(s, s+6))
		}
	}
	return FromRegions(os), FromRegions(is)
}

func BenchmarkIncluding(b *testing.B) {
	outer, inner := benchSets(2000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outer.Including(inner)
	}
}

func BenchmarkIncluded(b *testing.B) {
	outer, inner := benchSets(2000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inner.Included(outer)
	}
}

func BenchmarkNaiveIncluding(b *testing.B) {
	outer, inner := benchSets(200, 5) // quadratic: keep small
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveIncluding(outer, inner)
	}
}

func BenchmarkDirectlyIncludingNested(b *testing.B) {
	outer, inner := benchSets(2000, 5)
	u := universeOf(outer, inner)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.DirectlyIncluding(outer, inner)
	}
}

// BenchmarkDirectOutsideUniverse runs ⊃d and ⊂d on nested universes of
// about 12 000 and 120 000 regions against 1 000 spans the universe does
// not hold (word points), one inside each of 500 children and one after
// it, between two children. Each span's container is found by a search and
// a walk up from its predecessor, and R of ⊃d is the 500 children, so
// ns/span should not grow with the universe.
func BenchmarkDirectOutsideUniverse(b *testing.B) {
	for _, nOuter := range []int{2000, 20000} {
		outer, inner := benchSets(nOuter, 5)
		u := universeOf(outer, inner)
		var children, spans []Region
		for i := 0; i < 500; i++ {
			c := inner.At(i * inner.Len() / 500)
			children = append(children, c)
			spans = append(spans, Region{c.Start + 1, c.End - 2}, Region{c.End + 1, c.End + 3})
		}
		R, W := FromRegions(children), FromRegions(spans)
		if !u.ProperlyNested() || W.Len() != 1000 || W.Intersect(u.All()).Len() != 0 {
			b.Fatal("fixture: the universe is not nested, or holds a span")
		}
		for _, c := range []struct {
			name string
			run  func() Set
		}{
			{"including", func() Set { return u.DirectlyIncluding(R, W) }},
			{"included", func() Set { s, _ := u.DirectlyIncludedCtl(W, R, false, nil); return s }},
		} {
			b.Run(fmt.Sprintf("universe=%d/%s", u.All().Len(), c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*W.Len()), "ns/span")
			})
		}
	}
}

func BenchmarkUnion(b *testing.B) {
	a, c := benchSets(5000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Union(c)
	}
}

func BenchmarkInnermost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var rs []Region
	for i := 0; i < 10000; i++ {
		s := rng.Intn(100000)
		rs = append(rs, Of(s, s+1+rng.Intn(500)))
	}
	set := FromRegions(rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Innermost()
	}
}

func BenchmarkFromRegions(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rs := make([]Region, 10000)
	for i := range rs {
		s := rng.Intn(100000)
		rs[i] = Of(s, s+1+rng.Intn(100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromRegions(rs)
	}
}

// skewedBench runs one inclusion kernel on 20 000 regions against 200, in
// both directions: with disjoint operands (the probe kernels) and with
// self-nested ones — every region also holding a copy of itself shrunk by
// one — where neither side is disjoint and the sweeps run.
func skewedBench(b *testing.B, op func(R, S Set) Set) {
	outer, inner, few := skewedSets(20000, 3, 300)
	fewOuter := sample(rand.New(rand.NewSource(3)), outer, 200)
	selfNested := func(s Set) Set {
		var shrunk []Region
		for _, r := range s.Regions() {
			shrunk = append(shrunk, Region{r.Start + 1, r.End - 1})
		}
		return s.Union(FromRegions(shrunk))
	}
	nested, fewNested := selfNested(outer), selfNested(fewOuter)
	if few.Len() != 200 || !outer.Disjoint() || nested.Disjoint() || fewNested.Disjoint() {
		b.Fatalf("fixture: %d few; disjoint: outer %v, nested %v and %v", few.Len(), outer.Disjoint(), nested.Disjoint(), fewNested.Disjoint())
	}
	for _, c := range []struct {
		name string
		R, S Set
	}{
		{"disjoint/big-small", outer, few},
		{"disjoint/small-big", fewOuter, inner},
		{"nested/big-small", nested, fewNested},
		{"nested/small-big", fewNested, nested},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op(c.R, c.S)
			}
		})
	}
}

func BenchmarkIncludingSkewed(b *testing.B) { skewedBench(b, Set.Including) }

func BenchmarkIncludedSkewed(b *testing.B) {
	skewedBench(b, func(R, S Set) Set { return S.Included(R) })
}
