package region

import "sort"

// Probe kernels: inclusion driven from the small operand.
//
// In a disjoint set (Set.Disjoint) Starts increase strictly and Ends never
// decrease, so for any region x
//
//   - the regions that can strictly include x are at most two, found by one
//     search on Start: the one that starts with x and the one before it
//     (the latter only when x is empty and sits on its End);
//   - the regions strictly inside x are one contiguous index range, found by
//     one search on Start and one on End.
//
// A kernel with a disjoint operand therefore walks the *other* operand and
// probes the disjoint one, each probe starting where the previous one
// landed. A probe reads the regions one, three and seven past the cursor,
// as a gallop would, so a jump of up to seven regions costs a few reads of
// one or two cache lines. Past that it guesses: positions in a file are
// spread nearly evenly, so linear interpolation between the gallop's last
// step and the slice's last region lands on or next to the target. A gallop
// from the guess, up or down, brackets the target, and a binary search
// finishes. On evenly spread positions a far probe costs O(1) whatever the
// jump. Where they cluster a guess can miss by many regions, and a probe
// costs O(log n) at worst for a slice of n regions. Over a whole operand
// that is O(|small|) to O(|small| · log |big|): a merge when the sides are
// the same size, with no cutoff between the two.
//
// The container and holder walks below are shared by the set kernels
// (inclusion.go, Holding) and by the stream operators that probe a set
// with a stream (IncludingSetIter, HoldingIter).

// seekStart returns the first index i ≥ from with rs[i].Start ≥ v, where
// Starts do not decrease from `from` on.
func seekStart(rs []Region, from int, v int32) int {
	n := len(rs)
	var lo, hi int // rs[lo].Start < v; hi == n or rs[hi].Start ≥ v
	switch {
	case from >= n || rs[from].Start >= v:
		return from
	case from+1 == n || rs[from+1].Start >= v:
		return from + 1
	case from+3 >= n || rs[from+3].Start >= v:
		lo, hi = from+1, min(from+3, n)
	case from+7 >= n || rs[from+7].Start >= v:
		lo, hi = from+3, min(from+7, n)
	case rs[n-1].Start < v:
		return n
	default:
		lo, hi = from+7, n-1
		g := guess(lo, hi, int64(rs[lo].Start), int64(rs[hi].Start), int64(v))
		step := 1
		if rs[g].Start < v {
			for lo = g; lo+step < hi && rs[lo+step].Start < v; step <<= 1 {
				lo += step
			}
			hi = min(lo+step, hi)
		} else {
			for hi = g; hi-step > lo && rs[hi-step].Start >= v; step <<= 1 {
				hi -= step
			}
			lo = max(hi-step, lo)
		}
	}
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].Start < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seekEnd returns the first index i ≥ from with rs[i].End > v, where Ends
// do not decrease from `from` on.
func seekEnd(rs []Region, from int, v int32) int {
	n := len(rs)
	var lo, hi int // rs[lo].End ≤ v; hi == n or rs[hi].End > v
	switch {
	case from >= n || rs[from].End > v:
		return from
	case from+1 == n || rs[from+1].End > v:
		return from + 1
	case from+3 >= n || rs[from+3].End > v:
		lo, hi = from+1, min(from+3, n)
	case from+7 >= n || rs[from+7].End > v:
		lo, hi = from+3, min(from+7, n)
	case rs[n-1].End <= v:
		return n
	default:
		lo, hi = from+7, n-1
		g := guess(lo, hi, int64(rs[lo].End), int64(rs[hi].End), int64(v)+1)
		step := 1
		if rs[g].End <= v {
			for lo = g; lo+step < hi && rs[lo+step].End <= v; step <<= 1 {
				lo += step
			}
			hi = min(lo+step, hi)
		} else {
			for hi = g; hi-step > lo && rs[hi-step].End > v; step <<= 1 {
				hi -= step
			}
			lo = max(hi-step, lo)
		}
	}
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].End <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// guess interpolates where the first key ≥ t sits between index lo, whose
// key klo < t, and index hi, whose key khi ≥ t, were the keys spread evenly
// between them. The divisor is positive, the product of two factors below
// 2³² fits, and the ceiling of the quotient is at least 1 and at most
// hi−lo, so the guess lies in (lo, hi] without a clamp.
func guess(lo, hi int, klo, khi, t int64) int {
	return lo + 1 + int(((t-klo)*int64(hi-lo)-1)/(khi-klo))
}

// holders reports which of the two regions of the disjoint slice rs that
// can strictly include x do, given k = seekStart(rs, _, x.Start): the last
// region starting before x (index k-1) and the region starting with x
// (index k). Every earlier region ends at or before rs[k-1] starts, hence
// before x does, and every later one starts after x.
func holders(rs []Region, k int, x Region) (before, at bool) {
	before = k > 0 && rs[k-1].End >= x.End
	// Equal Starts: inclusion is End ≥ x.End, strictness End ≠ x.End.
	at = k < len(rs) && rs[k].Start == x.Start && rs[k].End > x.End
	return before, at
}

// containerWalk answers R ⊃ S for a disjoint R, one region of S at a time.
// Containers come out in R's order, each once.
type containerWalk struct {
	rs   []Region
	pos  int // seekStart cursor
	last int // highest index reported, -1 for none
	held int // rs[held] includes some s and starts with it: reported once S moves past that Start, -1 for none
}

func newContainerWalk(rs []Region) containerWalk {
	return containerWalk{rs: rs, last: -1, held: -1}
}

// step takes the next region of S and returns the indexes into R that are
// thereby settled as containers, at most two, ascending, -1 for none.
//
// The region that starts with s is held back rather than reported: an empty
// s' at the same Start, which sorts after s, is also included by the region
// before — a smaller index that has to come out first.
func (w *containerWalk) step(s Region) (a, b int) {
	a, b = -1, -1
	k := seekStart(w.rs, w.pos, s.Start)
	w.pos = k
	if w.held >= 0 && w.held < k {
		a, w.last, w.held = w.held, w.held, -1
	}
	before, at := holders(w.rs, k, s)
	if before && k-1 > w.last {
		w.last = k - 1
		if a < 0 {
			a = k - 1
		} else {
			b = k - 1
		}
	}
	if at {
		w.held = k
	}
	return a, b
}

// flush returns the index still held once S is exhausted, -1 for none.
func (w *containerWalk) flush() int {
	h := w.held
	w.held = -1
	return h
}

// includingByContainer is R ⊃ S for a disjoint R, driven from S.
func includingByContainer(R, S Set, check Checker) (Set, error) {
	// One container each, but for an empty s on a boundary, which has two.
	out := make([]Region, 0, min(len(R.regions), len(S.regions)))
	w := newContainerWalk(R.regions)
	for i, s := range S.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		a, b := w.step(s)
		if a >= 0 {
			out = append(out, R.regions[a])
		}
		if b >= 0 {
			out = append(out, R.regions[b])
		}
	}
	if h := w.flush(); h >= 0 {
		out = append(out, R.regions[h])
	}
	return trimmed(R, out), nil
}

// includingByContent is R ⊃ S for a disjoint S, driven from R: Ends never
// decrease in S, so of the regions starting inside r the first has the
// least End, and r includes one of them iff it includes that one.
func includingByContent(R, S Set, check Checker) (Set, error) {
	out := make([]Region, 0, len(R.regions))
	ss := S.regions
	k := 0
	for i, r := range R.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		k = seekStart(ss, k, r.Start)
		c := k
		if c < len(ss) && ss[c] == r {
			c++ // r itself; the next, if r includes it, is empty and sits on r.End
		}
		if c < len(ss) && ss[c].End <= r.End {
			out = append(out, r)
		}
	}
	return trimmed(R, out), nil
}

// includedByContent is R ⊂ S for a disjoint R, driven from S: the regions
// of R strictly inside s are one index range, and the ranges of successive
// s are merged by never going back before done. When s is itself in R it
// is the first region of its range and is left out. No other region of S
// can bring it back: its strict containers sort before s, and had one
// occurred, done would already be past it.
func includedByContent(R, S Set, check Checker) (Set, error) {
	// One region each is the common case, a child per parent; a parent
	// with several grows the buffer by doubling.
	out := make([]Region, 0, min(len(R.regions), len(S.regions)))
	rs := R.regions
	pos, done := 0, 0 // seekStart cursor; every index below done is decided
	for i, s := range S.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		pos = seekStart(rs, pos, s.Start)
		from := pos
		if from < done {
			from = done
		} else if from < len(rs) && rs[from] == s {
			from++
		}
		if to := seekEnd(rs, from, s.End); to > from {
			out = appendRun(out, rs[from:to])
			done = to
		}
	}
	return trimmed(R, out), nil
}

// includedByContainer is R ⊂ S for a disjoint S, driven from R.
func includedByContainer(R, S Set, check Checker) (Set, error) {
	out := make([]Region, 0, len(R.regions))
	k := 0
	for i, r := range R.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		k = seekStart(S.regions, k, r.Start)
		if before, at := holders(S.regions, k, r); before || at {
			out = append(out, r)
		}
	}
	return trimmed(R, out), nil
}

// Points is a word's occurrences read in place: a posting list, or a Set of
// match points. They are in set order, non-empty and pairwise disjoint, as
// tokens are.
type Points interface {
	Len() int
	At(i int) Region
}

// Within reports whether some occurrence of pts lies within r — the σ_w
// containment test for one region. Occurrences are disjoint, so the first
// one starting inside r ends first.
func Within(pts Points, r Region) bool {
	n := pts.Len()
	i := sort.Search(n, func(i int) bool { return pts.At(i).Start >= r.Start })
	return i < n && pts.At(i).End <= r.End
}

// Holding returns the regions of s that hold at least one occurrence of
// pts: σ_w with the postings as pts. Unlike ⊃ the test is not strict — a
// region that is exactly a word holds it. On a disjoint s every occurrence
// has one possible holder, so the occurrences probe s: O(|pts| · log
// (|s|/|pts|)). Otherwise each region of s searches pts.
func (s Set) Holding(pts Points, check Checker) (Set, error) {
	n := pts.Len()
	if s.IsEmpty() || n == 0 {
		return Empty, nil
	}
	if !s.disjoint {
		return s.FilterCtl(func(r Region) bool { return Within(pts, r) }, check)
	}
	out := make([]Region, 0, min(len(s.regions), n))
	w := holderWalk{rs: s.regions, pts: pts, last: -1}
	for {
		j, err := w.next(check)
		if err != nil {
			return Empty, err
		}
		if j < 0 {
			return trimmed(s, out), nil
		}
		out = append(out, s.regions[j])
	}
}

// holderWalk answers σ_w on a disjoint set by walking the occurrences: each
// gallops to the one region that can hold it.
type holderWalk struct {
	rs   []Region
	pts  Points
	i    int // next occurrence
	pos  int // seekStart cursor
	last int // index of the last holder reported, -1 for none
}

// next returns the index of the next region holding an occurrence, -1 when
// the occurrences are used up. check is polled every pollStride of them.
func (w *holderWalk) next(check Checker) (int, error) {
	for n := w.pts.Len(); w.i < n; {
		if err := poll(check, w.i); err != nil {
			return -1, err
		}
		p := w.pts.At(w.i)
		w.i++
		w.pos = seekStart(w.rs, w.pos, p.Start)
		j := w.pos - 1 // the last region starting at or before p
		if w.pos < len(w.rs) && w.rs[w.pos].Start == p.Start {
			j = w.pos
		}
		if j > w.last && w.rs[j].End >= p.End {
			w.last = j
			return j, nil
		}
	}
	return -1, nil
}

// HoldingIter streams Holding for a disjoint set s: holders come out as the
// occurrences reach them, so a consumer that stops after k regions has paid
// for the occurrences up to the k-th holder and no more.
func HoldingIter(s Set, pts Points, check Checker) Iterator {
	if !s.Disjoint() {
		panic("region: HoldingIter requires a disjoint set")
	}
	return &holdingIter{w: holderWalk{rs: s.regions, pts: pts, last: -1}, check: check}
}

type holdingIter struct {
	term
	w     holderWalk
	check Checker
}

func (it *holdingIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	j, err := it.w.next(it.check)
	if err != nil {
		return it.fail(err)
	}
	if j < 0 {
		return it.finish()
	}
	return it.w.rs[j], true, nil
}

func (it *holdingIter) Close() { it.done = true }

// lastEnd returns the End of the last region of a disjoint slice, the
// greatest there is: a region starting after it neither lies in a region of
// rs nor holds one, and nor does any that sorts later. minInt, below every
// int32 position, when rs is empty.
func lastEnd(rs []Region) int {
	if len(rs) == 0 {
		return minInt
	}
	return int(rs[len(rs)-1].End)
}

// IncludingSetIter streams R ⊃ s for a disjoint set R held in hand and a
// stream s: it pulls s one region at a time and gallops in R, so it costs
// what s does, stops pulling when its consumer stops, and stops pulling
// once s is past the end of R. Output is in R's order.
func IncludingSetIter(R Set, s Iterator) Iterator {
	if !R.Disjoint() {
		panic("region: IncludingSetIter requires a disjoint set")
	}
	return &includingSetIter{s: s, w: newContainerWalk(R.regions), end: lastEnd(R.regions), next: -1}
}

type includingSetIter struct {
	term
	s    Iterator
	w    containerWalk
	end  int // lastEnd of R
	next int // second index of the last step, not yet emitted, -1 for none
	eof  bool
}

func (it *includingSetIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		if it.next >= 0 {
			r := it.w.rs[it.next]
			it.next = -1
			return r, true, nil
		}
		if it.eof {
			return it.finish()
		}
		s, ok, err := it.s.Next()
		if err != nil {
			return it.fail(err)
		}
		if !ok || int(s.Start) > it.end {
			it.eof = true
			it.next = it.w.flush()
			continue
		}
		a, b := it.w.step(s)
		if a >= 0 {
			it.next = b
			return it.w.rs[a], true, nil
		}
	}
}

func (it *includingSetIter) Close() {
	it.done = true
	it.s.Close()
}
