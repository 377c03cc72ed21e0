package region

// Pull-based streaming kernels for the region algebra. Every operator of the
// materializing Set API has an iterator counterpart here that consumes its
// operands lazily and emits regions in the canonical set order, so a
// consumer that stops early (a LIMIT, a budget, a cancellation) never pays
// for the part of the stream it does not read. The engine runs both forms
// (the plan's shape picks, see docs/STREAMING.md); the iterators are checked
// against the set kernels differentially, and those against naive.go.
//
// IncludingIter and IncludedIter below merge two streams. When the left
// operand is a disjoint set in hand, IncludingSetIter and IncludedSetIter
// (probe.go) probe it with the right stream instead, and HoldingIter probes
// it with a posting list; they obey the same contract.
//
// Iterator contract:
//
//   - Output order is the canonical set order (Start ascending, End
//     descending) and duplicate-free, provided the inputs are. Streams are
//     therefore directly collectible into a Set without re-sorting.
//   - Next returns (r, true, nil) for each region; after the stream ends it
//     returns (Region{}, false, err) where err is non-nil only when the
//     stream aborted (cancellation, budget). The terminal outcome is
//     sticky: every later Next returns it again.
//   - Close releases internal buffers and closes child iterators. It is
//     idempotent; Next after Close reports exhaustion. Closing does not
//     consume the remainder of the inputs.
//   - Iterators are single-consumer and not safe for concurrent use.

// Iterator is a pull-based stream of regions in canonical set order.
type Iterator interface {
	Next() (Region, bool, error)
	Close()
}

// Iter returns an iterator over the set's regions. Sets are immutable, so
// the iterator never invalidates.
func (s Set) Iter() Iterator { return &sliceIter{rs: s.regions} }

type sliceIter struct {
	rs   []Region
	done bool
}

func (it *sliceIter) Next() (Region, bool, error) {
	if it.done || len(it.rs) == 0 {
		it.done = true
		return Region{}, false, nil
	}
	r := it.rs[0]
	it.rs = it.rs[1:]
	return r, true, nil
}

func (it *sliceIter) Close() { it.rs, it.done = nil, true }

// Materialize drains the iterator into a Set and closes it. The iterator
// contract guarantees canonical order, so no re-sorting is needed. On error
// the partial output is discarded, mirroring the *Ctl kernels.
func Materialize(it Iterator) (Set, error) {
	defer it.Close()
	var out []Region
	for {
		r, ok, err := it.Next()
		if err != nil {
			return Empty, err
		}
		if !ok {
			return trimmed(Empty, out), nil
		}
		out = append(out, r)
	}
}

// cursor wraps an iterator with one-region lookahead, the bounded lookahead
// every merge iterator needs.
type cursor struct {
	it     Iterator
	cur    Region
	ok     bool
	err    error
	loaded bool
}

// head returns the current region without consuming it.
func (c *cursor) head() (Region, bool, error) {
	if !c.loaded {
		c.cur, c.ok, c.err = c.it.Next()
		c.loaded = true
	}
	return c.cur, c.ok, c.err
}

// advance consumes the current region; the next head() pulls a fresh one.
func (c *cursor) advance() { c.loaded = false }

func (c *cursor) close() {
	if c.it != nil {
		c.it.Close()
	}
}

// term is the shared terminal-state machinery of the composite iterators:
// once done, Next keeps returning the same outcome.
type term struct {
	done bool
	err  error
}

func (t *term) finish() (Region, bool, error) {
	t.done = true
	return Region{}, false, nil
}

func (t *term) fail(err error) (Region, bool, error) {
	t.done, t.err = true, err
	return Region{}, false, err
}

func (t *term) terminal() (Region, bool, error) { return Region{}, false, t.err }

// UnionIter streams a ∪ b: a two-pointer sorted merge emitting equal heads
// once.
func UnionIter(a, b Iterator) Iterator {
	return &unionIter{a: cursor{it: a}, b: cursor{it: b}}
}

type unionIter struct {
	term
	a, b cursor
}

func (it *unionIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	ra, oka, err := it.a.head()
	if err != nil {
		return it.fail(err)
	}
	rb, okb, err := it.b.head()
	if err != nil {
		return it.fail(err)
	}
	switch {
	case !oka && !okb:
		return it.finish()
	case !okb || (oka && ra.Before(rb)):
		it.a.advance()
		return ra, true, nil
	case !oka || rb.Before(ra):
		it.b.advance()
		return rb, true, nil
	default: // equal heads: emit once
		it.a.advance()
		it.b.advance()
		return ra, true, nil
	}
}

func (it *unionIter) Close() {
	it.done = true
	it.a.close()
	it.b.close()
}

// IntersectIter streams a ∩ b.
func IntersectIter(a, b Iterator) Iterator {
	return &intersectIter{a: cursor{it: a}, b: cursor{it: b}}
}

type intersectIter struct {
	term
	a, b cursor
}

func (it *intersectIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		ra, oka, err := it.a.head()
		if err != nil {
			return it.fail(err)
		}
		if !oka {
			return it.finish()
		}
		rb, okb, err := it.b.head()
		if err != nil {
			return it.fail(err)
		}
		if !okb {
			return it.finish()
		}
		switch {
		case ra == rb:
			it.a.advance()
			it.b.advance()
			return ra, true, nil
		case ra.Before(rb):
			it.a.advance()
		default:
			it.b.advance()
		}
	}
}

func (it *intersectIter) Close() {
	it.done = true
	it.a.close()
	it.b.close()
}

// DiffIter streams a − b.
func DiffIter(a, b Iterator) Iterator {
	return &diffIter{a: cursor{it: a}, b: cursor{it: b}}
}

type diffIter struct {
	term
	a, b cursor
}

func (it *diffIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		ra, oka, err := it.a.head()
		if err != nil {
			return it.fail(err)
		}
		if !oka {
			return it.finish()
		}
		rb, okb, err := it.b.head()
		if err != nil {
			return it.fail(err)
		}
		if !okb {
			it.a.advance()
			return ra, true, nil
		}
		switch {
		case ra == rb:
			it.a.advance()
			it.b.advance()
		case ra.Before(rb):
			it.a.advance()
			return ra, true, nil
		default:
			it.b.advance()
		}
	}
}

func (it *diffIter) Close() {
	it.done = true
	it.a.close()
	it.b.close()
}

// FilterIter streams the regions of a satisfying keep.
func FilterIter(a Iterator, keep func(Region) bool) Iterator {
	return &filterIter{a: cursor{it: a}, keep: keep}
}

type filterIter struct {
	term
	a    cursor
	keep func(Region) bool
}

func (it *filterIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		r, ok, err := it.a.head()
		if err != nil {
			return it.fail(err)
		}
		if !ok {
			return it.finish()
		}
		it.a.advance()
		if it.keep(r) {
			return r, true, nil
		}
	}
}

func (it *filterIter) Close() {
	it.done = true
	it.a.close()
}

// OutermostIter streams ω(a): since containers sort before the regions they
// include, a region is outermost iff its end exceeds the running maximum —
// the same sweep Set.Outermost runs, one region at a time.
func OutermostIter(a Iterator) Iterator {
	return &outermostIter{a: cursor{it: a}, maxEnd: minInt}
}

// minInt and maxInt lie below and above every int32 position. The kernels
// start a running maximum or minimum End there, and lastEnd returns minInt
// for an empty set, so no region can tie with the sentinel.
const (
	minInt = -1 << 62
	maxInt = 1 << 62
)

type outermostIter struct {
	term
	a      cursor
	maxEnd int
}

func (it *outermostIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		r, ok, err := it.a.head()
		if err != nil {
			return it.fail(err)
		}
		if !ok {
			return it.finish()
		}
		it.a.advance()
		if int(r.End) > it.maxEnd {
			it.maxEnd = int(r.End)
			return r, true, nil
		}
	}
}

func (it *outermostIter) Close() {
	it.done = true
	it.a.close()
}

// InnermostIter streams ι(a). A region r is innermost iff no later region s
// (in canonical order every region r could include arrives after it) has
// s.End ≤ r.End, so r's fate is unknown until either a later region starts
// past r.End (r survives) or a region included in r arrives (r is out). A
// region starting exactly at r.End does not settle r: the empty region
// [r.End, r.End) sorts after every other region starting there, and r
// includes it. Candidates wait in a pending list; surviving pendings never
// include one another, so their Starts and Ends are both increasing,
// flushes are prefix flushes, and the emission order is the input order.
// The pending list is bounded by the input's partial-overlap degree — at
// most two entries for properly nested inputs.
func InnermostIter(a Iterator) Iterator {
	return &innermostIter{a: cursor{it: a}}
}

type innermostIter struct {
	term
	a       cursor
	pending []Region // undecided candidates; Starts and Ends increasing
	ready   []Region // decided innermost, not yet emitted
	flushed bool     // input exhausted and pending moved to ready
}

func (it *innermostIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		if len(it.ready) > 0 {
			r := it.ready[0]
			it.ready = it.ready[1:]
			return r, true, nil
		}
		if it.flushed {
			return it.finish()
		}
		s, ok, err := it.a.head()
		if err != nil {
			return it.fail(err)
		}
		if !ok {
			it.ready = append(it.ready, it.pending...)
			it.pending = it.pending[:0]
			it.flushed = true
			continue
		}
		it.a.advance()
		// Pendings ending before s.Start can never include a later region
		// (later Starts are ≥ s.Start): they are innermost.
		cut := 0
		for cut < len(it.pending) && it.pending[cut].End < s.Start {
			cut++
		}
		it.ready = append(it.ready, it.pending[:cut]...)
		it.pending = it.pending[cut:]
		// Pendings including s are not innermost. All pendings have
		// Start ≤ s.Start, so inclusion is End ≥ s.End — a suffix of the
		// increasing-End pending list.
		keep := len(it.pending)
		for keep > 0 && it.pending[keep-1].End >= s.End {
			keep--
		}
		it.pending = it.pending[:keep]
		it.pending = append(it.pending, s)
	}
}

func (it *innermostIter) Close() {
	it.done = true
	it.pending, it.ready = nil, nil
	it.a.close()
}

// IncludingIter streams r ⊃ s: the regions of r strictly including at least
// one region of s. r ⊋ s exactly when r sorts before s and s.End ≤ r.End,
// so it keeps a window of the s-regions sorting after the current r with a
// Start within its End (bounded lookahead: entries that do not sort after r
// are dropped as r advances) and a monotone deque over the window's End
// positions, and the test is an O(1) minimum lookup.
func IncludingIter(r, s Iterator) Iterator {
	return &includingIter{r: cursor{it: r}, s: cursor{it: s}}
}

type includingIter struct {
	term
	r, s cursor
	win  []Region // s-regions sorting after the current r, arrival order
	off  int      // absolute index of win[0]
	deq  []int    // absolute indices into the window, Ends increasing
	sEOF bool
}

func (it *includingIter) winAt(abs int) Region { return it.win[abs-it.off] }

func (it *includingIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		r, ok, err := it.r.head()
		if err != nil {
			return it.fail(err)
		}
		if !ok {
			return it.finish()
		}
		it.r.advance()
		// Drop window entries that do not sort after r: future r-regions
		// sort after r, so they sort after those entries too.
		for len(it.win) > 0 && !r.Before(it.win[0]) {
			it.win = it.win[1:]
			it.off++
		}
		for len(it.deq) > 0 && it.deq[0] < it.off {
			it.deq = it.deq[1:]
		}
		// Extend the window to every s with Start ≤ r.End. Entries past
		// r.End are harmless for the inclusion test — their End exceeds
		// their Start, hence exceeds r.End — and a later r may need them.
		for !it.sEOF {
			s, sok, err := it.s.head()
			if err != nil {
				return it.fail(err)
			}
			if !sok {
				it.sEOF = true
				break
			}
			if s.Start > r.End {
				break
			}
			it.s.advance()
			if !r.Before(s) {
				continue
			}
			abs := it.off + len(it.win)
			it.win = append(it.win, s)
			for len(it.deq) > 0 && it.winAt(it.deq[len(it.deq)-1]).End >= s.End {
				it.deq = it.deq[:len(it.deq)-1]
			}
			it.deq = append(it.deq, abs)
		}
		if len(it.deq) > 0 && it.winAt(it.deq[0]).End <= r.End {
			return r, true, nil
		}
	}
}

func (it *includingIter) Close() {
	it.done = true
	it.win, it.deq = nil, nil
	it.r.close()
	it.s.close()
}

// IncludedIter streams r ⊂ s: the regions of r strictly included in at
// least one region of s. Those containers sort before r — a prefix of s
// consumed monotonically — so one running maximum End over it suffices.
func IncludedIter(r, s Iterator) Iterator {
	return &includedIter{r: cursor{it: r}, s: cursor{it: s}, maxEnd: minInt}
}

type includedIter struct {
	term
	r, s   cursor
	sEOF   bool
	maxEnd int // max End among consumed s-regions
}

func (it *includedIter) Next() (Region, bool, error) {
	if it.done {
		return it.terminal()
	}
	for {
		r, ok, err := it.r.head()
		if err != nil {
			return it.fail(err)
		}
		if !ok {
			return it.finish()
		}
		it.r.advance()
		for !it.sEOF {
			s, sok, err := it.s.head()
			if err != nil {
				return it.fail(err)
			}
			if !sok {
				it.sEOF = true
				break
			}
			if !s.Before(r) {
				break
			}
			it.s.advance()
			it.maxEnd = max(it.maxEnd, int(s.End))
		}
		if it.maxEnd >= int(r.End) {
			return r, true, nil
		}
	}
}

func (it *includedIter) Close() {
	it.done = true
	it.r.close()
	it.s.close()
}
