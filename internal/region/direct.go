package region

import "slices"

// The direct operators, R ⊃d S and R ⊂d S, and Definition 3.1's check, in
// one transient sweep.
//
// A region t lies strictly between r and s only if t ⊋ s, so the only named
// regions that can keep r from directly including s are the answers of
// c ⊃ S over the named sets c: the blockers. One forward pass in set order
// over the containers R ⊃ S and the blockers keeps a stack of the open
// ones, each strictly inside the one below, and decides each s of S there:
// walking down from the top past the runs that do not include s, every
// container that no named set holds (a word, prefix or match point)
// directly includes s, and the walk stops at the first blocker, which
// directly includes s if R holds it. Nothing is kept between calls.
//
// The stack holds every strict container of s unless the pushes popped one,
// and a pop loses a container only where regions do not nest: a run popped
// by one it partially overlaps may include every later s ending inside it,
// and a run popped by one starting where it ends includes the empty region
// at that point, which the other includes too. Such an s is decided by the
// definition over the runs sorting before it (byDefinition), polling check
// as it scans: the O(n²) worst case the paper warns about.

// DirectlyIncluding returns R ⊃d S over the named sets: the regions of R
// strictly including some region of S with no region of any named set
// strictly between them. It costs the ⊃ kernels R ⊃ S and c ⊃ S for each
// named c, a merge of their answers and one pass; check is polled every
// pollStride regions of each.
func DirectlyIncluding(R, S Set, named []Set, check Checker) (Set, error) {
	C, err := R.IncludingCtl(S, check)
	if err != nil || C.IsEmpty() {
		return Empty, err
	}
	w, err := newSweep(C, S, named, check)
	if err != nil {
		return Empty, err
	}
	hit := make([]bool, len(w.ks))
	visit := func(k int) bool {
		hit[k] = true
		return false
	}
	for i, s := range S.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		if err := w.direct(s, check, visit); err != nil {
			return Empty, err
		}
	}
	out := make([]Region, 0, len(C.regions))
	for k, r := range w.ks {
		if hit[k] && w.src[k] == 0 {
			out = append(out, r)
		}
	}
	return trimmed(R, out), nil
}

// DirectlyIncluded returns R ⊂d S over the named sets: the regions of R
// strictly included in some region of S with no region of any named set
// strictly between them. It is DirectlyIncluding's sweep with the roles
// swapped — containers S ⊃ R, blockers c ⊃ R — in which r is kept when
// its nearest container is a region of S.
func DirectlyIncluded(R, S Set, named []Set, check Checker) (Set, error) {
	C, err := S.IncludingCtl(R, check)
	if err != nil || C.IsEmpty() {
		return Empty, err
	}
	w, err := newSweep(C, R, named, check)
	if err != nil {
		return Empty, err
	}
	out := make([]Region, 0, len(R.regions))
	held := false
	visit := func(k int) bool {
		held = w.src[k] == 0
		return held
	}
	for i, r := range R.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		held = false
		if err := w.direct(r, check, visit); err != nil {
			return Empty, err
		}
		if held {
			out = append(out, r)
		}
	}
	return trimmed(R, out), nil
}

// DirectPairs calls pair(a, b, r, s) for every region r of sets[a] that
// directly includes a region s of sets[b] — strictly, with no region of
// any of the sets strictly between them — until pair returns false. It is
// the sweep over every set at once, each region the contained side and
// every region a blocker: Definition 3.1's check. check is polled every
// pollStride regions.
func DirectPairs(sets []Set, check Checker, pair func(a, b int, r, s Region) bool) error {
	ks, src, err := merged(sets, check)
	if err != nil {
		return err
	}
	w := sweep{ks: ks, src: src, lost: minInt, touch: minInt}
	var b0, b1 int // the run of ks being decided
	stop := false
	visit := func(k int) bool {
		for a := k; a < len(ks) && ks[a] == ks[k]; a++ {
			for b := b0; b < b1; b++ {
				if !pair(int(src[a]), int(src[b]), ks[k], ks[b]) {
					stop = true
					return true
				}
			}
		}
		return false
	}
	for n := 0; b0 < len(ks) && !stop; n++ {
		if err := poll(check, n); err != nil {
			return err
		}
		for b1 = b0 + 1; b1 < len(ks) && ks[b1] == ks[b0]; b1++ {
		}
		if err := w.direct(ks[b0], check, visit); err != nil {
			return err
		}
		b0 = b1
	}
	return nil
}

// A sweep finds the direct containers of regions taken in set order among
// ks, a merge in set order in which a region several sources hold repeats
// once per source, in a run, the least source first. src[k] is the source
// of ks[k]; the sources from `from` on are named sets and block, the ones
// before are the container side of ⊃d and ⊂d.
type sweep struct {
	ks    []Region
	src   []int32
	from  int32
	stack []int // the first index of each open run, each strictly inside the one below
	next  int   // the runs of ks[:next] have been pushed
	lost  int   // the greatest End of a run popped by one it partially overlaps
	touch int   // the last position a run was popped at by one starting there
	in    []int // byDefinition's scratch
}

// newSweep merges the containers C, source 0, with the blockers c ⊃ S of
// each named set c, sources 1 on.
func newSweep(C, S Set, named []Set, check Checker) (*sweep, error) {
	sets := append(make([]Set, 0, 1+len(named)), C)
	for _, c := range named {
		b, err := c.IncludingCtl(S, check)
		if err != nil {
			return nil, err
		}
		sets = append(sets, b)
	}
	ks, src, err := merged(sets, check)
	if err != nil {
		return nil, err
	}
	return &sweep{ks: ks, src: src, from: 1, lost: minInt, touch: minInt}, nil
}

// blocks reports whether a named set holds the run starting at k.
func (w *sweep) blocks(k int) bool {
	for j := k; j < len(w.ks) && w.ks[j] == w.ks[k]; j++ {
		if w.src[j] >= w.from {
			return true
		}
	}
	return false
}

// push opens every run sorting before s. A run pops what does not strictly
// include it, noting the pops that may lose a container of a later region.
func (w *sweep) push(s Region) {
	end := seek(w.ks, w.next, s)
	for k := w.next; k < end; k++ {
		t := w.ks[k]
		if k > 0 && w.ks[k-1] == t {
			continue // the run is open already
		}
		for n := len(w.stack); n > 0; n-- {
			top := w.ks[w.stack[n-1]]
			if top.StrictlyIncludes(t) {
				break
			}
			if top.End > t.Start {
				w.lost = max(w.lost, int(top.End))
			} else if top.End == t.Start {
				w.touch = int(t.Start)
			}
			w.stack = w.stack[:n-1]
		}
		w.stack = append(w.stack, k)
	}
	w.next = end
}

// direct calls visit with the first index of each run that directly
// includes s, nearest first, until visit returns true. The regions it is
// called with come in set order.
func (w *sweep) direct(s Region, check Checker, visit func(k int) bool) error {
	w.push(s)
	// A run ending before s starts includes nothing from s on.
	for n := len(w.stack); n > 0 && w.ks[w.stack[n-1]].End < s.Start; n-- {
		w.stack = w.stack[:n-1]
	}
	if int(s.End) <= w.lost || s.Start == s.End && int(s.Start) == w.touch {
		return w.byDefinition(s, check, visit)
	}
	// Runs on top that do not include s started before it and end inside
	// it; below the first that does, every run does.
	for i := len(w.stack) - 1; i >= 0; i-- {
		k := w.stack[i]
		if w.ks[k].StrictlyIncludes(s) && (visit(k) || w.blocks(k)) {
			return nil
		}
	}
	return nil
}

// byDefinition decides s by the definition: of the runs sorting before s
// that strictly include it, each with no blocking one strictly inside it.
func (w *sweep) byDefinition(s Region, check Checker, visit func(k int) bool) error {
	w.in = w.in[:0]
	for k := 0; k < w.next; k++ {
		if err := poll(check, k); err != nil {
			return err
		}
		if w.ks[k].StrictlyIncludes(s) && (k == 0 || w.ks[k-1] != w.ks[k]) {
			w.in = append(w.in, k)
		}
	}
	for _, k := range w.in {
		between := func(b int) bool { return w.ks[k].StrictlyIncludes(w.ks[b]) && w.blocks(b) }
		if !slices.ContainsFunc(w.in, between) && visit(k) {
			return nil
		}
	}
	return nil
}

// merged is the k-way merge of sets in set order keeping each region's
// source: a region several sets hold appears once for each, the least
// source first. check is polled every pollStride regions.
func merged(sets []Set, check Checker) ([]Region, []int32, error) {
	type rest struct {
		rs  []Region
		src int32
	}
	var rests []rest
	total := 0
	for i, s := range sets {
		if !s.IsEmpty() {
			rests = append(rests, rest{s.regions, int32(i)})
			total += len(s.regions)
		}
	}
	ks, src := make([]Region, 0, total), make([]int32, 0, total)
	for i := 0; len(rests) > 0; i++ {
		if err := poll(check, i); err != nil {
			return nil, nil, err
		}
		// A scan of the heads costs what a heap would at the dozen or two
		// names a spec has.
		m := 0
		for j := 1; j < len(rests); j++ {
			if h, l := rests[j].rs[0], rests[m].rs[0]; h.Before(l) || h == l && rests[j].src < rests[m].src {
				m = j
			}
		}
		ks, src = append(ks, rests[m].rs[0]), append(src, rests[m].src)
		if rests[m].rs = rests[m].rs[1:]; len(rests[m].rs) == 0 {
			rests = slices.Delete(rests, m, m+1)
		}
	}
	return ks, src, nil
}
