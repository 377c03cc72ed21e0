package region

// Pull-based streaming kernels for the region algebra: the operators that
// compiled plans hold — ∪, ∩, −, ⊃ and the σ filter — have an iterator here
// that consumes its operands lazily and emits regions in the canonical set
// order, so a consumer that stops early (a LIMIT, a budget, a cancellation)
// never pays for the part of the stream it does not read. ι, ω, ⊂ and the
// direct operators have no iterator: the stream evaluator answers them with
// one set evaluation (docs/STREAMING.md). The iterators are checked against
// the set kernels differentially, and those against naive.go.
//
// IncludingIter below merges two streams. When its left operand is a
// disjoint set in hand, IncludingSetIter (probe.go) probes it with the right
// stream instead, and HoldingIter probes it with a posting list; they obey
// the same contract.
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
