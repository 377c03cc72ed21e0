package region

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The probe kernels find their way through a disjoint operand with
// seekStart and seekEnd, which step, guess by interpolation and gallop. The
// kernel tests see them only through answers that a wrong probe may not
// change, so these tests hold the two seeks to their definitions on layouts
// that make the guesses good, bad and degenerate.

// linearStart and linearEnd are the seeks' definitions: a scan from `from`.
func linearStart(rs []Region, from int, v int32) int {
	i := from
	for i < len(rs) && rs[i].Start < v {
		i++
	}
	return i
}

func linearEnd(rs []Region, from int, v int32) int {
	i := from
	for i < len(rs) && rs[i].End <= v {
		i++
	}
	return i
}

// nonDecreasing reports whether the key of every region is at least the
// key of the one before it — the precondition of a seek on that key.
func nonDecreasing(rs []Region, key func(Region) int32) bool {
	for i := 1; i < len(rs); i++ {
		if key(rs[i]) < key(rs[i-1]) {
			return false
		}
	}
	return true
}

// disjointAt lays out one region at each Start, which must increase: each
// ends halfway to the next Start, the last one byte on (or at the top).
func disjointAt(starts []int64) []Region {
	rs := make([]Region, len(starts))
	for i, s := range starts {
		end := min(s+1, top)
		if i+1 < len(starts) {
			end = s + (starts[i+1]-s)/2
		}
		rs[i] = Region{int32(s), int32(end)}
	}
	return rs
}

// seekLayout is one slice the seeks are tested on.
type seekLayout struct {
	name string
	rs   []Region
}

// seekLayouts returns the tested layouts: uniform, clustered and geometric
// spacing; runs of equal Starts (a Name and its First_Name) and of equal
// Ends (a Name and its Last_Name), which no disjoint set has but a seek's
// precondition allows; empty regions; slices of none and one region; and
// positions at 0 and next to math.MaxInt32.
func seekLayouts(n int) []seekLayout {
	rng := rand.New(rand.NewSource(51))
	var uniform, clustered, geometric, shifted []int64
	for i := 0; i < n; i++ {
		uniform = append(uniform, int64(7*i))
	}
	for pos := int64(3); len(clustered) < n; pos += 100_000 + rng.Int63n(1_000_000) {
		for burst := 1 + rng.Intn(40); burst > 0 && len(clustered) < n; burst-- {
			clustered = append(clustered, pos)
			pos += 1 + rng.Int63n(3)
		}
	}
	ratio := math.Exp(math.Log(1<<30) / float64(n)) // the last gap is a thousandth of the span
	for i := 0; i < n; i++ {
		geometric = append(geometric, int64(i)+int64(math.Pow(ratio, float64(i))))
	}
	for _, s := range uniform {
		shifted = append(shifted, top-uniform[n-1]+s)
	}
	var equalStarts, equalEnds, empties []Region
	for pos := int32(0); len(equalStarts) < n; pos += 40 {
		for k := int32(1 + rng.Intn(5)); k > 0; k-- {
			equalStarts = append(equalStarts, Region{pos, pos + 4*k})
			equalEnds = append(equalEnds, Region{pos + 20 - 4*k, pos + 20})
		}
	}
	for pos := int32(0); len(empties) < n; pos++ {
		l := int32(rng.Intn(3))
		empties = append(empties, Region{pos, pos + l})
		pos += l + int32(rng.Intn(2))
	}
	edges := []Region{{0, 0}, {0, 1}, {1, 1}, {2, 5}, {top - 3, top - 2}, {top - 1, top - 1}, {top - 1, top}, {top, top}}
	return []seekLayout{
		{"uniform", disjointAt(uniform)},
		{"clustered", disjointAt(clustered)},
		{"geometric", disjointAt(geometric)},
		{"equal-starts", equalStarts},
		{"equal-ends", equalEnds},
		{"empty-regions", empties},
		{"near-top", disjointAt(shifted)},
		{"edges", edges},
		{"none", nil},
		{"one", []Region{{5, 9}}},
		{"one-at-0", []Region{{0, 0}}},
		{"one-at-top", []Region{{top, top}}},
	}
}

// probeValues are the positions worth seeking in rs: every Start and End,
// one either side of each, the midpoints between neighbours, and both ends
// of int32.
func probeValues(rs []Region) []int32 {
	vs := []int32{math.MinInt32, -1, 0, 1, top - 1, top}
	add := func(p int64) {
		if p >= math.MinInt32 && p <= top {
			vs = append(vs, int32(p))
		}
	}
	for i, r := range rs {
		for _, p := range []int64{int64(r.Start), int64(r.End)} {
			add(p - 1)
			add(p)
			add(p + 1)
		}
		if i > 0 {
			add((int64(rs[i-1].Start) + int64(r.Start)) / 2)
		}
	}
	return vs
}

// seekMismatch compares both seeks with their definitions at one (from, v),
// each on a slice that meets its precondition, and describes the first
// that differs; "" when both agree.
func seekMismatch(rs []Region, starts, ends bool, from int, v int32) string {
	if starts {
		if got, want := seekStart(rs, from, v), linearStart(rs, from, v); got != want {
			return fmt.Sprintf("seekStart(from %d, v %d) = %d, want %d", from, v, got, want)
		}
	}
	if ends {
		if got, want := seekEnd(rs, from, v), linearEnd(rs, from, v); got != want {
			return fmt.Sprintf("seekEnd(from %d, v %d) = %d, want %d", from, v, got, want)
		}
	}
	return ""
}

// orderedKeys reports which seeks the layout's order allows.
func orderedKeys(t *testing.T, l seekLayout) (starts, ends bool) {
	starts = nonDecreasing(l.rs, func(r Region) int32 { return r.Start })
	ends = nonDecreasing(l.rs, func(r Region) int32 { return r.End })
	if !starts && !ends {
		t.Fatalf("%s: neither key is in order", l.name)
	}
	return starts, ends
}

// TestSeekMatchesLinear checks every (from, v) on every layout against a
// linear scan, then samples long jumps on large layouts, where
// interpolation guesses across thousands of regions.
func TestSeekMatchesLinear(t *testing.T) {
	for _, l := range seekLayouts(100) {
		starts, ends := orderedKeys(t, l)
		vs := probeValues(l.rs)
		for from := 0; from <= len(l.rs); from++ {
			for _, v := range vs {
				if m := seekMismatch(l.rs, starts, ends, from, v); m != "" {
					t.Fatalf("%s: %s", l.name, m)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(52))
	for _, l := range seekLayouts(10_000) {
		n := len(l.rs)
		if n < 2 {
			continue
		}
		starts, ends := orderedKeys(t, l)
		for i := 0; i < 2_000; i++ {
			from := rng.Intn(n)
			to := min(from+int(math.Exp(rng.Float64()*math.Log(float64(n)))), n-1)
			r := l.rs[to]
			for _, v := range []int32{r.Start - 1, r.Start, r.End, r.End + 1} {
				if m := seekMismatch(l.rs, starts, ends, from, v); m != "" {
					t.Fatalf("%s of %d regions: %s", l.name, n, m)
				}
			}
		}
	}
}

// FuzzSeek builds a slice from byte gaps, each scaled by a power of two,
// optionally shifted to end at the top of int32, and checks both seeks at
// one (from, v) against the linear scans. Its Starts equal its Ends, so
// both keys are in order.
func FuzzSeek(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint16(0), int32(7), uint8(0), false)
	f.Add([]byte{0, 0, 0, 5, 0, 0, 9, 200, 1, 1, 1}, uint16(1), int32(20), uint8(3), false)
	f.Add([]byte{1, 2, 4, 8, 16, 32, 64, 128, 255, 255}, uint16(2), int32(600), uint8(1), false)
	f.Add([]byte{1, 1, 1, 1, 255, 1, 1, 1, 255, 1, 1}, uint16(0), int32(math.MaxInt32), uint8(23), true)
	f.Add([]byte{9}, uint16(0), int32(0), uint8(0), true)
	f.Add([]byte{}, uint16(0), int32(-1), uint8(0), false)
	f.Fuzz(func(t *testing.T, gaps []byte, from uint16, v int32, scale uint8, high bool) {
		keys := make([]int64, len(gaps))
		var pos int64
		for i, g := range gaps {
			pos = min(pos+int64(g)<<(scale%24), top)
			keys[i] = pos
		}
		rs := make([]Region, len(keys))
		for i, k := range keys {
			if high {
				k += top - pos
			}
			rs[i] = Region{int32(k), int32(k)}
		}
		if m := seekMismatch(rs, true, true, int(from)%(len(rs)+1), v); m != "" {
			t.Fatalf("%v: %s", rs, m)
		}
	})
}
