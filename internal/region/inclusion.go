package region

// This file implements the inclusion operators of the region algebra:
//
//	R ⊃ S  = {r ∈ R : ∃s ∈ S, r ⊋ s}          (Including)
//	R ⊂ S  = {r ∈ R : ∃s ∈ S, s ⊋ r}          (Included)
//	R ⊃d S = {r ∈ R : ∃s ∈ S, r ⊋ s and no    (DirectlyIncluding)
//	          other indexed region lies strictly between r and s}
//	R ⊂d S = the dual of ⊃d                    (DirectlyIncluded)
//
// Since a region is identified by its pair of positions, inclusion between
// *distinct* regions is strict inclusion of position pairs. The strict
// reading is forced by the paper's surrounding definitions: Definition 3.1
// constrains only direct inclusions between distinct regions, ι and ω
// explicitly require r' ≠ r, and Proposition 3.3(ii) ("no RIG path from Ri
// to Rj ⇒ Ri ⊃ Rj is empty") would be false for Ri ⊃ Ri under a reflexive
// reading.
//
// The direct operators read the named sets to rule out regions lying in
// between; see direct.go. The paper calls ⊃d and ⊂d significantly more
// expensive than ⊃ and ⊂. Here every inclusion is read off the set order —
// r ⊋ s exactly when r sorts before s and s.End ≤ r.End — so ⊃ and ⊂ are
// one merge each, and ⊃d and ⊂d are those merges plus one stack sweep.

import "slices"

// Including returns R ⊃ S: the regions of R that strictly include at least
// one region of S.
//
// When R is disjoint the regions of S probe it — each has at most two
// possible containers, found by one search — in O(|S|) on evenly spread
// positions and O(|S| · log |R|) at worst; when S is disjoint the regions
// of R probe it, at the same costs with the sides swapped; when both are,
// the smaller side drives (probe.go).
// The output buffer is sized by the driving side. Only when neither operand
// is disjoint (a self-nested name such as sgml's Section, overlapping hand
// tables) does the merge below run, in O(|R|+|S|).
func (s Set) Including(t Set) Set {
	out, _ := s.IncludingCtl(t, nil)
	return out
}

// IncludingCtl is Including with cooperative cancellation: check is polled
// every pollStride regions of the driving operand and a non-nil return
// aborts the kernel.
func (s Set) IncludingCtl(t Set, check Checker) (Set, error) {
	R, S := s, t
	if R.IsEmpty() || S.IsEmpty() {
		return Empty, nil
	}
	switch {
	case R.disjoint && (!S.disjoint || len(S.regions) <= len(R.regions)):
		return includingByContainer(R, S, check)
	case S.disjoint:
		return includingByContent(R, S, check)
	}
	return includingSweep(R, S, check)
}

// includingSweep is R ⊃ S for operands of which neither is disjoint. In set
// order r strictly includes s exactly when r sorts before s and s.End ≤
// r.End, so one backward merge that keeps the least End of the S regions
// sorting after r decides each r with one comparison.
func includingSweep(R, S Set, check Checker) (Set, error) {
	var out []Region
	minEnd := maxInt // least End of S.regions[j:], none yet
	j := len(S.regions)
	for i := len(R.regions) - 1; i >= 0; i-- {
		if err := poll(check, len(R.regions)-1-i); err != nil {
			return Empty, err
		}
		r := R.regions[i]
		for ; j > 0 && r.Before(S.regions[j-1]); j-- {
			minEnd = min(minEnd, int(S.regions[j-1].End))
		}
		if minEnd <= int(r.End) {
			out = appendRun(out, R.regions[i:i+1])
		}
	}
	slices.Reverse(out)
	return trimmed(R, out), nil
}

// Included returns R ⊂ S: the regions of R strictly included in at least
// one region of S.
//
// When R is disjoint the regions inside each s are one contiguous range of
// R, found by two searches and copied as a run: O(|S|) on evenly spread
// positions and O(|S| · log |R|) at worst, plus the answer. When S is
// disjoint each r has at most two possible containers, at the same costs
// with the sides swapped. When both are, the smaller side drives
// (probe.go). Only when neither is disjoint does the merge below run, in
// O(|R|+|S|).
func (s Set) Included(t Set) Set {
	out, _ := s.IncludedCtl(t, nil)
	return out
}

// IncludedCtl is Included with cooperative cancellation: check is polled
// every pollStride regions of the driving operand and a non-nil return
// aborts the kernel.
func (s Set) IncludedCtl(t Set, check Checker) (Set, error) {
	R, S := s, t
	if R.IsEmpty() || S.IsEmpty() {
		return Empty, nil
	}
	switch {
	case R.disjoint && (!S.disjoint || len(S.regions) <= len(R.regions)):
		return includedByContent(R, S, check)
	case S.disjoint:
		return includedByContainer(R, S, check)
	}
	return includedSweep(R, S, check)
}

// includedSweep is R ⊂ S for operands of which neither is disjoint: the
// mirror of includingSweep, one forward merge that keeps the greatest End
// of the S regions sorting before r.
func includedSweep(R, S Set, check Checker) (Set, error) {
	var out []Region
	maxEnd := minInt // greatest End of S.regions[:j], none yet
	j := 0
	for i, r := range R.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		for ; j < len(S.regions) && S.regions[j].Before(r); j++ {
			maxEnd = max(maxEnd, int(S.regions[j].End))
		}
		if maxEnd >= int(r.End) {
			out = appendRun(out, R.regions[i:i+1])
		}
	}
	return trimmed(R, out), nil
}

// seek returns the first index i ≥ from of rs, a slice in set order, whose
// region does not sort before r, galloping from `from` as the probe kernels
// do: O(log d) for a jump of d regions, over nearby cache lines when d is
// small.
func seek(rs []Region, from int, r Region) int {
	k := order(r)
	n := len(rs)
	if from >= n || order(rs[from]) >= k {
		return from
	}
	lo, step := from, 1 // rs[lo] sorts before r
	for lo+step < n && order(rs[lo+step]) < k {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, n)
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if order(rs[mid]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// order maps a region to an integer that sorts as the region does in set
// order (Start ascending, End descending): one comparison per probe.
func order(r Region) uint64 {
	return uint64(uint32(r.Start)^1<<31)<<32 | uint64(^(uint32(r.End) ^ 1<<31))
}
