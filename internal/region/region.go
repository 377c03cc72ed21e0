// Package region implements the data structures underlying the PAT region
// algebra of Salminen & Tompa as used by Consens & Milo (SIGMOD'94):
// regions of text, sorted region sets, and the inclusion machinery (⊃, ⊂,
// ⊃d, ⊂d, innermost, outermost) together with efficient sweep-based
// implementations and naive reference implementations for testing.
//
// A region is a half-open byte range [Start, End) of the indexed text and is
// identified by its pair of positions, exactly as in the paper ("each region
// ... is defined by a pair of positions in the text"). The positions are
// int32, so a region is eight bytes (Bytes): every named set, cached answer
// and kernel buffer is a slice of them, and the probe kernels' searches are
// bound by the cache lines that slice spans. A Set is a duplicate-free
// slice of regions sorted by (Start ascending, End descending), so that
// under proper nesting outer regions precede the regions they include.
package region

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Region is a half-open byte range [Start, End) of the indexed text. Its
// endpoints are 32-bit: index.CheckDocument refuses a document over
// math.MaxInt32 bytes, so every position fits, and a region is eight bytes.
type Region struct {
	Start int32
	End   int32
}

// Bytes is the in-memory footprint of one Region: the unit in which the
// engine's PeakBytes and the index's SizeBytes count what sets hold.
const Bytes = int(unsafe.Sizeof(Region{}))

// minInt and maxInt lie below and above every int32 position. The kernels
// start a running maximum or minimum End there, and lastEnd returns minInt
// for an empty set, so no region can tie with the sentinel.
const (
	minInt = -1 << 62
	maxInt = 1 << 62
)

// Of builds the region [start, end) from int positions, which must lie in
// [0, math.MaxInt32]: positions the text index or a parse of an accepted
// document produced.
func Of(start, end int) Region { return Region{int32(start), int32(end)} }

// Len reports the byte length of the region.
func (r Region) Len() int { return int(r.End) - int(r.Start) }

// Includes reports whether r includes s: the endpoints of s are within those
// of r (r ⊇ s, inclusive of equality), per the paper's definition of ⊃.
func (r Region) Includes(s Region) bool {
	return r.Start <= s.Start && s.End <= r.End
}

// StrictlyIncludes reports whether r includes s and r ≠ s.
func (r Region) StrictlyIncludes(s Region) bool {
	return r.Includes(s) && r != s
}

// Overlaps reports whether r and s share at least one position without one
// including the other ("partial overlap").
func (r Region) Overlaps(s Region) bool {
	if r.Includes(s) || s.Includes(r) {
		return false
	}
	return r.Start < s.End && s.Start < r.End
}

// Before orders regions by (Start ascending, End descending). Under proper
// nesting this places every region before the regions it includes.
func (r Region) Before(s Region) bool {
	if r.Start != s.Start {
		return r.Start < s.Start
	}
	return r.End > s.End
}

func (r Region) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// Set is a set of regions: duplicate-free and sorted by (Start asc, End
// desc). The zero value is the empty set. Sets are treated as immutable;
// operations return new sets.
//
// A set knows whether it is disjoint — each region ends at or before the
// next starts. Every constructor establishes the flag (a kernel that
// returns a subset of a disjoint operand inherits it, everything else finds
// it in the pass that builds the slice), so it is always exact and no
// kernel re-derives it. The inclusion kernels select their algorithm on it:
// in a disjoint set the container of a region is one index and the contents
// of a region are one index range (see inclusion.go).
type Set struct {
	regions  []Region
	disjoint bool
	memo     *Memo // see WithMemo; never copied into a kernel's result
}

// Empty is the empty region set.
var Empty = Set{}

// FromRegions builds a set from arbitrary regions, sorting and removing
// duplicates. The input slice is not retained. It is the constructor that
// establishes the (Start asc, End desc), duplicate-free invariant for
// untrusted input.
func FromRegions(rs []Region) Set {
	if len(rs) == 0 {
		return Set{}
	}
	out := make([]Region, len(rs))
	copy(out, rs)
	return FromOrdered(out)
}

// FromOrdered takes ownership of rs and makes it a set. It is for callers
// that produce regions in set order — a posting list turned into match
// points — and pays for nothing else: one pass verifies the order and finds
// the disjoint flag, and only input that is out of order is sorted and
// de-duplicated, in place.
func FromOrdered(rs []Region) Set {
	sorted, disjoint := true, true
	for i, r := range rs {
		if r.End < r.Start {
			disjoint = false
		}
		if i+1 == len(rs) {
			break
		}
		if !r.Before(rs[i+1]) {
			sorted = false
			break
		}
		if r.End > rs[i+1].Start {
			disjoint = false
		}
	}
	if !sorted {
		slices.SortFunc(rs, func(a, b Region) int {
			switch {
			case a == b:
				return 0
			case a.Before(b):
				return -1
			}
			return 1
		})
		rs = slices.Compact(rs)
		disjoint = isDisjoint(rs)
	}
	return Set{regions: rs, disjoint: disjoint}
}

// isDisjoint is the definition the flag records: every region is
// well-formed and ends at or before the next starts.
func isDisjoint(rs []Region) bool {
	for i, r := range rs {
		if r.End < r.Start || (i+1 < len(rs) && r.End > rs[i+1].Start) {
			return false
		}
	}
	return true
}

// fromSorted wraps a slice that is already sorted and duplicate-free.
// Callers must not modify the slice afterwards. Kernels that emit regions
// in sweep order wrap their output here.
func fromSorted(rs []Region) Set { return Set{regions: rs, disjoint: isDisjoint(rs)} }

// subsetOf wraps a sorted, duplicate-free selection of parent's regions. A
// subset of a disjoint set is disjoint; otherwise the selection is checked,
// which costs what the answer does.
func subsetOf(parent Set, rs []Region) Set {
	return Set{regions: rs, disjoint: parent.disjoint || isDisjoint(rs)}
}

// trimmed wraps out, a selection of parent's regions in set order, as a Set,
// copying to a right-sized slice when the capacity hint left most of it
// unused, so long-lived results (cached sets, instance extents) don't pin
// oversized backing arrays.
func trimmed(parent Set, out []Region) Set {
	if len(out) == 0 {
		return Empty
	}
	if cap(out) >= 4*len(out) {
		exact := make([]Region, len(out))
		copy(exact, out)
		out = exact
	}
	return subsetOf(parent, out)
}

// appendRun appends run to out, at least doubling the capacity when it has
// to grow: the copies made on the way to an answer of n regions stay under
// 2n, where append's 1.25x steps would make 5n of them. It is for kernels
// with no bound on their answer better than the big operand.
func appendRun(out, run []Region) []Region {
	if need := len(out) + len(run); need > cap(out) {
		grown := make([]Region, len(out), max(2*cap(out), need))
		copy(grown, out)
		out = grown
	}
	return append(out, run...)
}

// Disjoint reports whether each region of the set ends at or before the
// next starts. The instances of a non-terminal that does not nest in itself
// are disjoint; sgml's Section is the counterexample.
func (s Set) Disjoint() bool { return s.disjoint || len(s.regions) == 0 }

// Len reports the number of regions in the set.
func (s Set) Len() int { return len(s.regions) }

// IsEmpty reports whether the set has no regions.
func (s Set) IsEmpty() bool { return len(s.regions) == 0 }

// Regions exposes the sorted backing slice. Callers must not modify it.
func (s Set) Regions() []Region { return s.regions }

// At returns the i-th region in (Start asc, End desc) order.
func (s Set) At(i int) Region { return s.regions[i] }

// Contains reports whether the set contains exactly the region r.
func (s Set) Contains(r Region) bool {
	i := sort.Search(len(s.regions), func(i int) bool { return !s.regions[i].Before(r) })
	return i < len(s.regions) && s.regions[i] == r
}

// Equal reports whether two sets hold exactly the same regions.
func (s Set) Equal(t Set) bool {
	if len(s.regions) != len(t.regions) {
		return false
	}
	for i := range s.regions {
		if s.regions[i] != t.regions[i] {
			return false
		}
	}
	return true
}

func (s Set) String() string {
	out := "{"
	for i, r := range s.regions {
		if i > 0 {
			out += " "
		}
		out += r.String()
	}
	return out + "}"
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	out := make([]Region, 0, len(s.regions)+len(t.regions))
	i, j := 0, 0
	for i < len(s.regions) && j < len(t.regions) {
		a, b := s.regions[i], t.regions[j]
		switch {
		case a == b:
			out = append(out, a)
			i++
			j++
		case a.Before(b):
			out = append(out, a)
			i++
		default:
			out = append(out, b)
			j++
		}
	}
	out = append(out, s.regions[i:]...)
	out = append(out, t.regions[j:]...)
	return fromSorted(out)
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	if s.IsEmpty() || t.IsEmpty() {
		return Empty
	}
	out := make([]Region, 0, min(len(s.regions), len(t.regions)))
	i, j := 0, 0
	for i < len(s.regions) && j < len(t.regions) {
		a, b := s.regions[i], t.regions[j]
		switch {
		case a == b:
			out = append(out, a)
			i++
			j++
		case a.Before(b):
			i++
		default:
			j++
		}
	}
	if t.disjoint {
		return trimmed(t, out)
	}
	return trimmed(s, out)
}

// Diff returns s − t.
func (s Set) Diff(t Set) Set {
	if s.IsEmpty() {
		return Empty
	}
	if t.IsEmpty() {
		return s
	}
	out := make([]Region, 0, len(s.regions))
	i, j := 0, 0
	for i < len(s.regions) {
		if j >= len(t.regions) {
			out = append(out, s.regions[i:]...)
			break
		}
		a, b := s.regions[i], t.regions[j]
		switch {
		case a == b:
			i++
			j++
		case a.Before(b):
			out = append(out, a)
			i++
		default:
			j++
		}
	}
	return trimmed(s, out)
}

// Filter returns the subset of s whose regions satisfy keep.
func (s Set) Filter(keep func(Region) bool) Set {
	out, _ := s.FilterCtl(keep, nil) // a nil checker cannot fail
	return out
}

// Outermost implements the ω operation: the regions of s not included in any
// other region of s (the maximal elements of s under inclusion).
func (s Set) Outermost() Set {
	if s.IsEmpty() {
		return Empty
	}
	out := make([]Region, 0, len(s.regions))
	maxEnd := int32(-1)
	for _, r := range s.regions {
		// Everything earlier in (Start asc, End desc) order has
		// start ≤ r.Start; such a region includes r iff its end ≥ r.End.
		if r.End > maxEnd {
			out = append(out, r)
			maxEnd = r.End
		}
	}
	return trimmed(s, out)
}

// Innermost implements the ι operation: the regions of s that include no
// other region of s (the minimal elements of s under inclusion).
func (s Set) Innermost() Set {
	if s.IsEmpty() {
		return Empty
	}
	// The last region is innermost: nothing sorts after it. Before it,
	// everything later in order has start ≥ r.Start (same-start regions
	// later have smaller end); such a region is included in r iff its
	// end ≤ r.End. No sentinel: a region may end at math.MaxInt32.
	n := len(s.regions)
	out := make([]Region, 1, n)
	out[0] = s.regions[n-1]
	minEnd := out[0].End
	for i := n - 2; i >= 0; i-- {
		r := s.regions[i]
		if r.End < minEnd {
			out = append(out, r)
			minEnd = r.End
		}
	}
	// Reverse back into sorted order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return trimmed(s, out)
}

// Memo is a slot beside a set for one structure derived from the whole set
// by whoever holds it — the text index keeps a named set's value order
// there. It lives exactly as long as the Set value it was attached to:
// replacing or dropping the set drops the memo with it, and no kernel
// copies it into a result, so a memo never describes anything but the set
// it sits beside.
type Memo struct {
	mu  sync.Mutex // held while building
	val atomic.Value
}

// WithMemo returns s with a fresh, empty memo.
func (s Set) WithMemo() Set {
	s.memo = new(Memo)
	return s
}

// Memo returns the set's memo, nil for a set that was not given one.
func (s Set) Memo() *Memo { return s.memo }

// Load returns the memoized value, nil while there is none.
func (m *Memo) Load() any { return m.val.Load() }

// Fill returns the memoized value, calling build to make it when there is
// none. A failed build stores nothing. While one goroutine builds, Fill in
// another returns (nil, nil) rather than wait — builders poll a Checker and
// a waiter could not — so callers keep a path that does without the value.
func (m *Memo) Fill(build func() (any, error)) (any, error) {
	if v := m.val.Load(); v != nil {
		return v, nil
	}
	if !m.mu.TryLock() {
		return nil, nil
	}
	defer m.mu.Unlock()
	if v := m.val.Load(); v != nil {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	m.val.Store(v)
	return v, nil
}
