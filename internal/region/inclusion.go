package region

// This file implements the inclusion operators of the region algebra:
//
//	R ⊃ S  = {r ∈ R : ∃s ∈ S, r ⊋ s}          (Including)
//	R ⊂ S  = {r ∈ R : ∃s ∈ S, s ⊋ r}          (Included)
//	R ⊃d S = {r ∈ R : ∃s ∈ S, r ⊋ s and no    (DirectlyIncluding)
//	          other indexed region lies strictly between r and s}
//	R ⊂d S = the dual of ⊃d                    (DirectlyIncludedCtl)
//
// Since a region is identified by its pair of positions, inclusion between
// *distinct* regions is strict inclusion of position pairs. The strict
// reading is forced by the paper's surrounding definitions: Definition 3.1
// constrains only direct inclusions between distinct regions, ι and ω
// explicitly require r' ≠ r, and Proposition 3.3(ii) ("no RIG path from Ri
// to Rj ⇒ Ri ⊃ Rj is empty") would be false for Ri ⊃ Ri under a reflexive
// reading.
//
// The direct operators need the universe of indexed regions (the union of
// all instance sets) to rule out regions lying in between; see Universe.
// The paper calls ⊃d and ⊂d significantly more expensive than ⊃ and ⊂. Here
// every inclusion is read off the set order — r ⊋ s exactly when r sorts
// before s and s.End ≤ r.End — so ⊃ and ⊂ are one merge each, and on a
// properly nested universe ⊃d and ⊂d are a walk up a forest per region.

import "slices"

// Including returns R ⊃ S: the regions of R that strictly include at least
// one region of S.
//
// When R is disjoint the regions of S probe it — each has at most two
// possible containers, found by one galloping search — in
// O(|S| · log(|R|/|S|)); when S is disjoint the regions of R probe it in
// O(|R| · log(|S|/|R|)); when both are, the smaller side drives (probe.go).
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
// R, found by two galloping searches and copied as a run:
// O(|S| · log(|R|/|S|)) plus the answer. When S is disjoint each r has at
// most two possible containers: O(|R| · log(|S|/|R|)). When both are, the
// smaller side drives (probe.go). Only when neither is disjoint does the
// merge below run, in O(|R|+|S|).
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

// Universe is the set of all indexed regions, used by the direct-inclusion
// operators to decide whether some region lies between two others. Building
// it detects proper nesting once, enabling the fast parent-based evaluation
// of ⊃d and ⊂d for parse-tree-shaped instances.
type Universe struct {
	all    Set
	nested bool
	parent []int // forest parent indexes into all.regions, -1 for roots (nested only)
}

// NewUniverse builds the universe from the union of the instance sets: one
// k-way merge into a slice of exactly the union's size, then one stack sweep
// that builds the forest or finds that none holds. Both passes poll
// check every pollStride regions; a non-nil return abandons the build.
func NewUniverse(sets []Set, check Checker) (*Universe, error) {
	all, err := mergeSets(sets, check)
	if err != nil {
		return nil, err
	}
	parent, err := buildForest(all.regions, check)
	if err != nil {
		return nil, err
	}
	return &Universe{all: all, nested: parent != nil, parent: parent}, nil
}

// All returns the union of every instance set in the universe.
func (u *Universe) All() Set { return u.all }

// ProperlyNested reports whether the universe regions form a forest: no
// two partially overlap, and the strict containers of each form a chain,
// which only an empty region lying where two regions touch breaks. Region
// instances extracted from parse trees with no empty region always do.
func (u *Universe) ProperlyNested() bool { return u.nested }

// mergeSets returns the union of sets in one k-way merge: the least of the
// sets' next regions is taken each step, and a region several sets hold is
// kept once. The output buffer is sized for the sum of the operands and
// copied down to the union's size only when some region was held twice, so
// the universe keeps no spare capacity. One set alone is the union as it
// is, sharing its slice. The merge emits in (Start asc, End desc) order and
// drops repeats; the disjoint flag is found in the same pass.
func mergeSets(sets []Set, check Checker) (Set, error) {
	rests, total := nonEmpty(sets)
	if len(rests) == 1 {
		return Set{regions: rests[0].regions, disjoint: rests[0].disjoint}, nil
	}
	out := make([]Region, 0, total)
	disjoint := true
	for i := 0; len(rests) > 0; i++ {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		var r Region
		r, rests = popLeast(rests)
		if n := len(out); n == 0 || out[n-1] != r {
			if r.End < r.Start || n > 0 && out[n-1].End > r.Start {
				disjoint = false
			}
			out = append(out, r)
		}
	}
	if len(out) < total {
		out = append(make([]Region, 0, len(out)), out...)
	}
	return Set{regions: out, disjoint: disjoint}, nil
}

// nonEmpty returns the sets that hold a region and how many they hold.
func nonEmpty(sets []Set) ([]Set, int) {
	out := make([]Set, 0, len(sets))
	total := 0
	for _, s := range sets {
		if !s.IsEmpty() {
			out = append(out, s)
			total += s.Len()
		}
	}
	return out, total
}

// popLeast takes the least first region off the unread rests of the merged
// sets, dropping a rest it empties. A scan of the k heads costs what a heap
// of them would at the dozen or two names a spec has.
func popLeast(rests []Set) (Region, []Set) {
	m := 0
	for i := 1; i < len(rests); i++ {
		if rests[i].regions[0].Before(rests[m].regions[0]) {
			m = i
		}
	}
	r := rests[m].regions[0]
	if rests[m].regions = rests[m].regions[1:]; rests[m].IsEmpty() {
		rests[m] = rests[len(rests)-1]
		rests = rests[:len(rests)-1]
	}
	return r, rests
}

// buildForest computes, for regions sorted by (Start asc, End desc), the
// index of each region's tightest strict container (-1 for roots) with a
// single stack sweep polling check every pollStride regions. It returns nil
// where no forest holds the inclusions: when two regions partially overlap
// — the stack holds a chain of nested regions, and one popped because it
// ends before r does, but after r starts, overlaps r — and when an empty
// region lies where two regions touch, inside both. The empty region [x, x)
// sorts after every region starting at x, so it arrives after the pop of a
// region ending at x by one starting there.
func buildForest(rs []Region, check Checker) ([]int, error) {
	parent := make([]int, len(rs))
	var stack []int
	touch := minInt // where the last region popped by a region starting at its End ended
	for i, r := range rs {
		if err := poll(check, i); err != nil {
			return nil, err
		}
		// Pop what does not include r: each region is pushed and popped
		// once, so the pops cost the sweep O(n).
		for len(stack) > 0 {
			top := rs[stack[len(stack)-1]]
			if top.StrictlyIncludes(r) {
				break
			}
			if top.End > r.Start {
				return nil, nil
			}
			if top.End == r.Start {
				touch = int(r.Start)
			}
			stack = stack[:len(stack)-1]
		}
		if r.Start == r.End && int(r.Start) == touch {
			return nil, nil
		}
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		} else {
			parent[i] = -1
		}
		stack = append(stack, i)
	}
	return parent, nil
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

// appendDirect appends to out the indexes of the universe regions that
// directly include s — the minimal elements, under inclusion, of its strict
// containers — given i = seek(u.all.regions, _, s).
//
// On a properly nested universe every container of a region is one of its
// forest ancestors, so an indexed s has its parent. Any other non-empty s
// walks up from the last universe region p sorting before it: a container
// of s sorts before s, so p starts inside it and is included in it, and the
// first region on p's path to its root that includes s is the tightest.
// An empty s outside the universe may lie where two universe regions touch,
// inside both; it and every s of a universe with partial overlaps scan the
// regions sorting before s, which are where its strict containers are.
func (u *Universe) appendDirect(out []int, s Region, i int) []int {
	rs := u.all.regions
	indexed := i < len(rs) && rs[i] == s
	switch {
	case u.nested && indexed:
		if p := u.parent[i]; p >= 0 {
			out = append(out, p)
		}
		return out
	case u.nested && s.Len() > 0:
		for j := i - 1; j >= 0; j = u.parent[j] {
			if rs[j].Includes(s) {
				return append(out, j)
			}
		}
		return out
	}
	var strict []int
	for j, t := range rs[:i] {
		if t.Includes(s) {
			strict = append(strict, j)
		}
	}
	for _, j := range strict {
		if !slices.ContainsFunc(strict, func(k int) bool { return rs[j].StrictlyIncludes(rs[k]) }) {
			out = append(out, j)
		}
	}
	return out
}

// DirectlyIncluding returns R ⊃d S for a set R of universe regions: the
// regions of R strictly including some region of S with no other universe
// region strictly between them — i.e. R's regions that are direct
// containers of an S region.
func (u *Universe) DirectlyIncluding(R, S Set) Set {
	out, _ := u.DirectlyIncludingCtl(R, S, false, nil)
	return out
}

// DirectlyIncludingCtl returns R ⊃d S. A universe region directly includes
// s exactly when it is one of s's direct containers, so the universe
// regions of the answer come from S: on a nested universe one galloping
// search and a forest lookup or walk per region of S, then a sort of the
// containers' indexes, which is their set order, and a probe of R for each.
// outside says that R may hold regions the universe does not (word points);
// those take the rule of outsidePairs. check is polled every pollStride
// regions of S and of R; on a universe with partial overlaps one region of
// S scans the regions sorting before it, so this is the poll that bounds
// the O(n²) worst case the paper warns about.
func (u *Universe) DirectlyIncludingCtl(R, S Set, outside bool, check Checker) (Set, error) {
	if R.IsEmpty() || S.IsEmpty() {
		return Empty, nil
	}
	var idx []int
	if u.nested {
		idx = make([]int, 0, len(S.regions)) // about one each
	}
	at := 0 // S is sorted, so each search starts where the last ended
	for i, s := range S.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		at = seek(u.all.regions, at, s)
		idx = u.appendDirect(idx, s, at)
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	// The containers are at most as many as S, often far fewer than R: each
	// probes R from where the last one landed, not a merge through R.
	out := make([]Region, 0, len(idx))
	j := 0
	for _, k := range idx {
		c := u.all.regions[k]
		if j = seek(R.regions, j, c); j < len(R.regions) && R.regions[j] == c {
			out = append(out, c)
		}
	}
	if !outside {
		return trimmed(R, out), nil
	}
	var more []Region
	err := u.outsidePairs(R, S, check, func(i, _ int) bool {
		more = append(more, R.regions[i])
		return true
	})
	if err != nil {
		return Empty, err
	}
	return subsetOf(R, out).Union(subsetOf(R, more)), nil
}

// DirectlyIncludedCtl returns R ⊂d S: the regions of R directly included
// in a region of S. A region of S in the universe directly includes r
// exactly when it is one of r's direct containers, which each r looks up.
// outside says that S may hold regions the universe does not (word points);
// those take the rule of outsidePairs. check is polled every pollStride
// regions of R and of S.
func (u *Universe) DirectlyIncludedCtl(R, S Set, outside bool, check Checker) (Set, error) {
	if R.IsEmpty() || S.IsEmpty() {
		return Empty, nil
	}
	var out []Region
	var buf [2]int
	at := 0
	for i, r := range R.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		at = seek(u.all.regions, at, r)
		for _, j := range u.appendDirect(buf[:0], r, at) {
			if S.Contains(u.all.regions[j]) {
				out = append(out, r)
				break
			}
		}
	}
	if !outside {
		return subsetOf(R, out), nil
	}
	var idx []int
	err := u.outsidePairs(S, R, check, func(_, k int) bool {
		idx = append(idx, k)
		return false
	})
	if err != nil {
		return Empty, err
	}
	slices.Sort(idx)
	more := make([]Region, 0, len(idx))
	for _, k := range slices.Compact(idx) {
		more = append(more, R.regions[k])
	}
	return subsetOf(R, out).Union(subsetOf(R, more)), nil
}

// outsidePairs finds the direct pairs whose container the universe does
// not hold: it calls pair(i, k) for each region r = outer[i] outside the
// universe and each region s = inner[k] that r directly includes, until
// pair returns true. r directly includes s exactly when r ⊋ s and r
// strictly includes none of s's direct containers in the universe, since
// any universe region between the two includes one of those. The regions r
// strictly includes sort after it and start within it, so each r scans
// that run of inner. check is polled every pollStride regions of outer.
func (u *Universe) outsidePairs(outer, inner Set, check Checker, pair func(i, k int) bool) error {
	rs, ss := u.all.regions, inner.regions
	var buf [2]int
	at, from := 0, 0
	for i, r := range outer.regions {
		if err := poll(check, i); err != nil {
			return err
		}
		if at = seek(rs, at, r); at < len(rs) && rs[at] == r {
			continue
		}
		from = seek(ss, from, r)
	scan:
		for k := from; k < len(ss) && ss[k].Start <= r.End; k++ {
			s := ss[k]
			if !r.StrictlyIncludes(s) {
				continue
			}
			for _, j := range u.appendDirect(buf[:0], s, seek(rs, 0, s)) {
				if r.StrictlyIncludes(rs[j]) {
					continue scan
				}
			}
			if pair(i, k) {
				break
			}
		}
	}
	return nil
}
