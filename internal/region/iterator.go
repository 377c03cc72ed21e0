package region

// Pull-based streaming kernels for the region algebra, the lazy forms the
// stream evaluator keeps: Set.Iter streams a name off the index, FilterIter
// is σ over a stream, and over a disjoint set in hand HoldingIter (σ_w)
// and IncludingSetIter (⊃) probe the set with a posting list or a stream
// (probe.go). Each consumes its operand lazily and emits regions in the
// canonical set order, so a consumer that stops early (a LIMIT, a budget,
// a cancellation) never pays for the part of the stream it does not read.
// Every other operator has no iterator: the stream evaluator answers it
// with one set evaluation (docs/STREAMING.md). The iterators are checked
// against the set kernels differentially, and those against naive.go.
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

// cursor wraps an iterator with one-region lookahead.
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

// term is the shared terminal-state machinery of the iterators:
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
