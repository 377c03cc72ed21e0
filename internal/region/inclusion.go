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
// Per the paper, ⊃d and ⊂d are significantly more expensive than ⊃ and ⊂.

import "math/bits"

// Including returns R ⊃ S: the regions of R that strictly include at least
// one region of S.
//
// When R is disjoint the regions of S probe it — each has at most two
// possible containers, found by one galloping search — in
// O(|S| · log(|R|/|S|)); when S is disjoint the regions of R probe it in
// O(|R| · log(|S|/|R|)); when both are, the smaller side drives (probe.go).
// The output buffer is sized by the driving side. Only when neither operand
// is disjoint (a self-nested name such as sgml's Section, overlapping hand
// tables) does the sweep below run: O((|R|+|S|) log |S|) with a sparse-table
// range-minimum structure over the end positions of S, except when a
// region of R also occurs in S, where ruling out the self-match may scan
// the candidate range.
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

// includingSweep is R ⊃ S for operands of which neither is disjoint.
func includingSweep(R, S Set, check Checker) (Set, error) {
	rmq := newMinTable(S.regions)
	out := make([]Region, 0, len(R.regions))
	var abort error
	for i, r := range R.regions {
		if abort = poll(check, i); abort != nil {
			break
		}
		// Candidates s have s.Start in [r.Start, r.End]; since the set
		// is sorted primarily by Start this is a contiguous index
		// range, and r includes one of them iff the minimum end in the
		// range is ≤ r.End. The only non-strict inclusion is s == r.
		lo := lowerBoundStart(S.regions, r.Start)
		hi := upperBoundStart(S.regions, r.End)
		if lo >= hi {
			continue
		}
		ok := rmq.min(lo, hi) <= r.End
		if ok && S.Contains(r) {
			ok = strictBesides(S.regions[lo:hi], r)
		}
		if ok {
			out = append(out, r)
		}
	}
	rmq.release()
	if abort != nil {
		return Empty, abort
	}
	return trimmed(R, out), nil
}

// strictBesides reports whether some region in cands other than r is
// included in r. cands all have Start within [r.Start, r.End].
func strictBesides(cands []Region, r Region) bool {
	for _, s := range cands {
		if s != r && r.Includes(s) {
			return true
		}
	}
	return false
}

// Included returns R ⊂ S: the regions of R strictly included in at least
// one region of S.
//
// When R is disjoint the regions inside each s are one contiguous range of
// R, found by two galloping searches and copied as a run:
// O(|S| · log(|R|/|S|)) plus the answer. When S is disjoint each r has at
// most two possible containers: O(|R| · log(|S|/|R|)). When both are, the
// smaller side drives (probe.go). Only when neither is disjoint does the
// sweep below run: O((|R|+|S|) log |S|) with a prefix-maximum over the end
// positions of S, with the same self-match caveat as Including.
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

// includedSweep is R ⊂ S for operands of which neither is disjoint.
func includedSweep(R, S Set, check Checker) (Set, error) {
	// prefMax[i] = max end among S.regions[0:i] (those starts are ≤ any
	// later start).
	buf := getIntBuf()
	prefMax := buf.ints(len(S.regions) + 1)
	prefMax[0] = -1
	var abort error
	for i, sr := range S.regions {
		if abort = poll(check, i); abort != nil {
			break
		}
		prefMax[i+1] = max(prefMax[i], sr.End)
	}
	out := make([]Region, 0, len(R.regions))
	for i, r := range R.regions {
		if abort != nil {
			break
		}
		if abort = poll(check, i); abort != nil {
			break
		}
		// Containers s have s.Start ≤ r.Start, a prefix of S; one of
		// them contains r iff the maximum end in the prefix is ≥ r.End.
		hi := upperBoundStart(S.regions, r.Start)
		if hi == 0 || prefMax[hi] < r.End {
			continue
		}
		// Some container exists; it is strict unless the only
		// container is r itself.
		if prefMax[hi] > r.End || !S.Contains(r) || containerBesides(S.regions[:hi], r) {
			out = append(out, r)
		}
	}
	putIntBuf(buf)
	if abort != nil {
		return Empty, abort
	}
	return trimmed(R, out), nil
}

// containerBesides reports whether some region in cands other than r
// includes r. cands all have Start ≤ r.Start.
func containerBesides(cands []Region, r Region) bool {
	for _, s := range cands {
		if s != r && s.Includes(r) {
			return true
		}
	}
	return false
}

// lowerBoundStart returns the first index i with regions[i].Start >= v.
func lowerBoundStart(rs []Region, v int32) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs[mid].Start < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBoundStart returns the first index i with regions[i].Start > v.
func upperBoundStart(rs []Region, v int32) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs[mid].Start <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// minTable is a sparse table answering range-minimum queries over the end
// positions of a sorted region slice in O(1) after O(n log n) setup. All
// levels live in one pooled scratch buffer; callers release the table when
// done with it.
type minTable struct {
	rows [][]int32
	buf  *intBuf
}

func newMinTable(rs []Region) minTable {
	n := len(rs)
	levels, total := 1, n
	for width := 2; width <= n; width *= 2 {
		levels++
		total += n - width + 1
	}
	buf := getIntBuf()
	flat := buf.ints(total)
	rows := make([][]int32, 1, levels)
	rows[0] = flat[:n]
	for i, r := range rs {
		rows[0][i] = r.End
	}
	off := n
	for width := 2; width <= n; width *= 2 {
		prev := rows[len(rows)-1]
		next := flat[off : off+n-width+1]
		off += n - width + 1
		for i := range next {
			next[i] = min(prev[i], prev[i+width/2])
		}
		rows = append(rows, next)
	}
	return minTable{rows: rows, buf: buf}
}

func (t minTable) release() { putIntBuf(t.buf) }

// min returns the minimum end in the half-open index range [lo, hi).
func (t minTable) min(lo, hi int) int32 {
	k := bits.Len(uint(hi-lo)) - 1
	return min(t.rows[k][lo], t.rows[k][hi-(1<<k)])
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
// that builds the forest and finds any partial overlap. Both passes poll
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

// ProperlyNested reports whether the universe regions form a forest (no
// partial overlaps). Region instances extracted from parse trees always do.
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
// when two regions partially overlap, where no forest exists: the stack
// holds a chain of nested regions, and one popped because it ends before r
// does, but after r starts, overlaps r.
func buildForest(rs []Region, check Checker) ([]int, error) {
	parent := make([]int, len(rs))
	var stack []int
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
			stack = stack[:len(stack)-1]
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

// Parent returns the tightest strict container of r in the universe and
// whether one exists. It requires a properly nested universe.
func (u *Universe) Parent(r Region) (Region, bool) {
	if !u.nested {
		panic("region: Parent requires a properly nested universe")
	}
	i := u.indexOf(r)
	if i < 0 || u.parent[i] < 0 {
		return Region{}, false
	}
	return u.all.regions[u.parent[i]], true
}

func (u *Universe) indexOf(r Region) int {
	lo := lowerBoundStart(u.all.regions, r.Start)
	for i := lo; i < len(u.all.regions) && u.all.regions[i].Start == r.Start; i++ {
		if u.all.regions[i] == r {
			return i
		}
	}
	return -1
}

// Between reports whether some universe region t ∉ {r, s} satisfies
// r ⊇ t ⊇ s. This is the paper's "other indexed region between r and s".
func (u *Universe) Between(r, s Region) bool {
	if !r.Includes(s) {
		return false
	}
	if u.nested {
		// Walk up from s: the containers of s are exactly its
		// ancestors (plus s itself).
		cur := s
		for {
			p, ok := u.Parent(cur)
			if !ok || !r.Includes(p) {
				return false
			}
			if p != r && p != s {
				return true
			}
			if p == r {
				return false
			}
			cur = p
		}
	}
	for _, t := range u.containers(s) {
		if t != r && t != s && r.Includes(t) {
			return true
		}
	}
	return false
}

// containers returns all universe regions that include s (including s itself
// if present). Used only on non-nested universes.
func (u *Universe) containers(s Region) []Region {
	var out []Region
	hi := upperBoundStart(u.all.regions, s.Start)
	for i := 0; i < hi; i++ {
		if t := u.all.regions[i]; t.Includes(s) {
			out = append(out, t)
		}
	}
	return out
}

// directContainer returns the region that directly includes s on a properly
// nested universe, where there is at most one: the forest parent of an
// indexed s, else the tightest universe region including it.
func (u *Universe) directContainer(s Region) (Region, bool) {
	if p, ok := u.Parent(s); ok {
		return p, true
	}
	if u.indexOf(s) >= 0 {
		return Region{}, false // an indexed root
	}
	var best Region
	found := false
	for _, t := range u.containers(s) {
		if t != s && (!found || best.StrictlyIncludes(t)) {
			best, found = t, true
		}
	}
	return best, found
}

// directContainers returns the regions that directly include s on a
// universe with partial overlaps: the minimal elements (under inclusion) of
// the strict containers of s.
func (u *Universe) directContainers(s Region) []Region {
	var minimal []Region
	for _, t := range u.containers(s) {
		if t == s {
			continue
		}
		dominated := false
		for _, t2 := range u.containers(s) {
			if t2 != s && t2 != t && t.StrictlyIncludes(t2) {
				dominated = true
				break
			}
		}
		if !dominated {
			minimal = append(minimal, t)
		}
	}
	return minimal
}

// DirectContainersOf returns the set of universe regions that directly
// include some region of S — for each s the minimal elements (under
// inclusion) of its strict containers. It is the seam through which the
// direct operators, set and stream, evaluate ⊃d: on a nested universe one
// forest lookup per region of S and no allocation but the answer. check is
// polled every pollStride regions of S; on non-nested universes one
// iteration scans the containers of s, so this is the poll that bounds the
// O(n²) worst case the paper warns about.
func (u *Universe) DirectContainersOf(S Set, check Checker) (Set, error) {
	var cand []Region
	if u.nested {
		cand = make([]Region, 0, len(S.regions)) // at most one each
	}
	for i, s := range S.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		if !u.nested {
			cand = append(cand, u.directContainers(s)...)
		} else if p, ok := u.directContainer(s); ok {
			cand = append(cand, p)
		}
	}
	return FromOrdered(cand), nil
}

// DirectlyWithin reports whether a universe region that directly includes r
// is in S: the ⊂d test for one region.
func (u *Universe) DirectlyWithin(r Region, S Set) bool {
	if u.nested {
		p, ok := u.directContainer(r)
		return ok && S.Contains(p)
	}
	for _, t := range u.directContainers(r) {
		if S.Contains(t) {
			return true
		}
	}
	return false
}

// DirectlyIncluding returns R ⊃d S: the regions of R strictly including some
// region of S with no other universe region strictly between them — i.e. R's
// regions that are direct containers of an S region.
func (u *Universe) DirectlyIncluding(R, S Set) Set {
	out, _ := u.DirectlyIncludingCtl(R, S, nil)
	return out
}

// DirectlyIncludingCtl is DirectlyIncluding with cooperative cancellation:
// check is polled every pollStride regions of S.
func (u *Universe) DirectlyIncludingCtl(R, S Set, check Checker) (Set, error) {
	if R.IsEmpty() || S.IsEmpty() {
		return Empty, nil
	}
	cand, err := u.DirectContainersOf(S, check)
	if err != nil {
		return Empty, err
	}
	return cand.Intersect(R), nil
}

// DirectlyIncludedCtl returns R ⊂d S: the regions of R whose direct
// container is a region of S. check is polled every pollStride regions of R.
func (u *Universe) DirectlyIncludedCtl(R, S Set, check Checker) (Set, error) {
	if R.IsEmpty() || S.IsEmpty() {
		return Empty, nil
	}
	var out []Region
	for i, r := range R.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		if u.DirectlyWithin(r, S) {
			out = append(out, r)
		}
	}
	return subsetOf(R, out), nil
}
