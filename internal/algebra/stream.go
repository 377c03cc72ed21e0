package algebra

// Streaming evaluation: Stream compiles an expression into a pull-based
// region.Iterator pipeline, so a consumer that stops early (LIMIT, budget,
// cancellation) pays only for the prefix it reads. The pipeline is lazy
// over three things only, the nodes the engine's LIMIT streams run: names,
// which stream off the index; σ; and Name ⊃ X for a disjoint name. σ and ⊃
// over a bare disjoint name do not stream the name: the other operand — a
// posting list, a run of the value order, a stream — probes the set in hand
// (streamSelect, streamIncluding), which costs what that operand does and is
// metered as the sweep was (tapOver). σ over anything else filters its
// argument's stream.
//
// Every other node — word, prefix and match points, ∪, ∩, −, ι, ω, near,
// freq, ⊂, ⊃d, ⊂d, and ⊃ whose left operand is not a disjoint name — is
// evaluated once by the set evaluator when the pipeline is built, and its
// answer streams out as a name's regions do. That evaluation runs under the
// pipeline's context, budget and statistics, reads and writes no
// result-cache entry, and its answer is metered into PeakBytes. A LIMIT
// over such a node pays for the whole node before its first row
// (docs/STREAMING.md).
//
// The engine runs two evaluators and the shape of the plan picks between
// them: a plan that needs a complete set before it can answer (an
// index-only projection, a fast join, the per-variable candidates of a
// join) runs on EvalContext (eval.go), every other single-variable plan
// pulls its candidates off a Stream. Neither is the other's reference: both
// are checked against the naive evaluator of internal/refeval by the
// differential harness (internal/refeval/diff) and against each other by
// the property tests in stream_test.go. How a stream differs from a set
// evaluation:
//
//   - No subexpression result-cache reads. Duplicated subexpressions are
//     re-evaluated, as they are by the set evaluator: neither keeps a
//     per-call memo. The engine still serves a whole candidate expression
//     from the cross-query cache and publishes fully drained streams to it.
//   - Budget charging is per region as it flows through each operator — the
//     per-region analogue of the set evaluator's per-result charge. A
//     partially consumed stream charges only for the prefix pulled. A node
//     answered by the set evaluator charges as that evaluator does, and its
//     answer again as it flows out.
//   - Stats.Ops/DirectOps count pipeline construction; RegionsTouched
//     counts regions actually emitted; PeakBytes records the high-water
//     mark of buffers the pipeline had to materialize (value-order runs,
//     the answers of set-evaluated nodes).

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"qof/internal/region"
)

// openStreams counts the root pipelines Stream has handed out that are not
// yet closed. Leak-accounting tests use OpenStreams to prove every pipeline
// is closed — including the ones a canceled query abandons mid-drain.
var openStreams atomic.Int64

// OpenStreams reports the number of streaming pipelines currently open
// (built by Stream, not yet Closed).
func OpenStreams() int64 { return openStreams.Load() }

// rootIter wraps a pipeline's root so the live count drops exactly once on
// the first Close. Close is idempotent and pipelines are single-consumer,
// so no synchronization is needed.
type rootIter struct {
	region.Iterator
	closed bool
}

func (r *rootIter) Close() {
	if !r.closed {
		r.closed = true
		openStreams.Add(-1)
	}
	r.Iterator.Close()
}

// streamPollStride is how many Next calls each operator tap lets pass
// between cancellation polls. The region package uses the same stride for
// its materializing sweeps.
const streamPollStride = 1024

// streamCtx is the shared state of one streaming evaluation: cancellation,
// budget, statistics, and the buffered-bytes meter. All iterators of one
// pipeline share a single streamCtx; pipelines are single-consumer, so no
// locking is needed.
type streamCtx struct {
	cctx   context.Context // nil when the caller's context cannot be canceled
	check  region.Checker
	budget *Budget
	stats  *Stats
	live   int // bytes currently held in materialized buffers
}

// meter records n regions' worth of freshly materialized buffer and updates
// the peak. Buffers live as long as the pipeline, so live never shrinks.
func (sc *streamCtx) meter(n int) {
	sc.live += n * region.Bytes
	if sc.stats != nil && sc.live > sc.stats.PeakBytes {
		sc.stats.PeakBytes = sc.live
	}
}

// Stream compiles e into a streaming iterator pipeline over the evaluator's
// instance. The returned iterator emits the same region sequence the
// materializing Eval would return, in canonical order; cancellation,
// deadline expiry and budget exhaustion surface as errors from Next
// (context errors, or an error wrapping qerr.ErrBudgetExceeded). Unindexed
// region names are reported immediately, before any region flows, and so
// is a failure of a node the set evaluator answers while the pipeline is
// built.
//
// The caller owns the iterator and must Close it — also after errors —
// to release pipeline buffers. Statistics accumulate into st when non-nil.
func (ev *Evaluator) Stream(cctx context.Context, e Expr, st *Stats, b *Budget) (region.Iterator, error) {
	// Name resolution is the only failure mode of building the pipeline;
	// validating up front keeps error behavior aligned with materializing
	// evaluation, which never skips an unindexed name either (safeToSkip
	// blocks short-circuiting over unknown names).
	var nameErr error
	Walk(e, func(x Expr) {
		if n, ok := x.(Name); ok && nameErr == nil && !ev.in.Has(n.Ident) {
			nameErr = fmt.Errorf("algebra: region %q: %w", n.Ident, ErrNotIndexed)
		}
	})
	if nameErr != nil {
		return nil, nameErr
	}
	sc := &streamCtx{budget: b, stats: st}
	if cctx != nil && cctx.Done() != nil {
		sc.cctx, sc.check = cctx, func() error { return pollDone(cctx) }
	}
	it, err := ev.stream(sc, e)
	if err != nil {
		return nil, err
	}
	openStreams.Add(1)
	return &rootIter{Iterator: it}, nil
}

// StreamEval drains a streaming pipeline into a Set: Eval semantics with
// iterator machinery, used by the differential harness to exercise the
// streaming operators under full consumption.
func (ev *Evaluator) StreamEval(cctx context.Context, e Expr, st *Stats, b *Budget) (region.Set, error) {
	it, err := ev.Stream(cctx, e, st, b)
	if err != nil {
		return region.Empty, err
	}
	return region.Materialize(it)
}

// countOp records pipeline construction of one operator.
func (sc *streamCtx) countOp() {
	if sc.stats != nil {
		sc.stats.Ops++
	}
}

// stream builds the iterator for e recursively. Operator nodes are wrapped
// in a tap that polls cancellation, charges the budget per emitted region,
// and accumulates RegionsTouched — the streaming analogue of the charges
// the materializing eval applies per operator result.
func (ev *Evaluator) stream(sc *streamCtx, e Expr) (region.Iterator, error) {
	switch e := e.(type) {
	case Name:
		s, _ := ev.in.Region(e.Ident) // validated in Stream
		return sc.tap(s.Iter(), false), nil
	case Select:
		return ev.streamSelect(sc, e)
	case Binary:
		if n, ok := e.L.(Name); ok && e.Op == OpIncluding {
			if set, _ := ev.in.Region(n.Ident); !set.IsEmpty() && set.Disjoint() { // validated in Stream
				return ev.streamIncluding(sc, set, e.R)
			}
		}
	}
	// No lazy form: one set evaluation, which counts its own operators
	// and regions, and whose answer streams out as a name's regions do.
	s, err := ev.evaluate(sc.cctx, e, sc.stats, sc.budget, nil)
	if err != nil {
		return nil, err
	}
	sc.meter(s.Len())
	return sc.tap(s.Iter(), false), nil
}

// streamIncluding streams Name ⊃ X for a non-empty disjoint name, the one
// binary node with a lazy form. The name is not streamed: X is pulled one
// region at a time and each region probes the name's slice, so the
// operator costs what X does and a LIMIT downstream still stops X early.
func (ev *Evaluator) streamIncluding(sc *streamCtx, name region.Set, x Expr) (region.Iterator, error) {
	it, err := ev.stream(sc, x)
	if err != nil {
		return nil, err
	}
	sc.countOp()
	return sc.tapOver(region.IncludingSetIter(name, it), name), nil
}

// streamSelect builds σ. Over a bare name the set is in hand and an index
// can answer from its small side. σ_w probes a disjoint name with the
// postings, one occurrence at a time, so a LIMIT still stops it after a few.
// σ_= and σ_prefix read a run of the name's value order, which has to be
// sorted back into set order whole: that is done when the run is sparse —
// it sorts in fewer comparisons than the name has regions. A dense run, a
// name that is not disjoint, and σ over anything but a name filter the
// argument's stream with the same per-region predicates: dense is exactly
// where a LIMIT stops the sweep after a few regions, and where an answer
// built whole would be most of the name.
func (ev *Evaluator) streamSelect(sc *streamCtx, e Select) (region.Iterator, error) {
	words := ev.in.Words()
	var pts region.Points
	if e.Mode == SelContains {
		pts = words.Postings(e.W)
	}
	n, ok := e.Arg.(Name)
	if !ok {
		return ev.streamFilter(sc, e, pts)
	}
	set, _ := ev.in.Region(n.Ident) // validated in Stream
	if e.Mode == SelContains {
		if pts.Len() == 0 || !set.Disjoint() {
			return ev.streamFilter(sc, e, pts)
		}
		sc.countOp()
		return sc.tapOver(region.HoldingIter(set, pts, sc.check), set), nil
	}
	m, ordered, err := words.TextMatches(set, e.W, e.Mode == SelPrefix, sc.check)
	if err != nil {
		return nil, err
	}
	if !ordered || m*bits.Len(uint(m)) >= set.Len() {
		return ev.streamFilter(sc, e, pts)
	}
	var out region.Set
	if e.Mode == SelEquals {
		out, err = words.SelectEqualsCtl(set, e.W, sc.check)
	} else {
		out, err = words.SelectPrefixCtl(set, e.W, sc.check)
	}
	if err != nil {
		return nil, err
	}
	sc.meter(out.Len())
	sc.countOp()
	return sc.tapOver(out.Iter(), set), nil
}

// streamFilter applies σ as a filter over the streaming argument, with the
// predicates the WordIndex kernels use.
func (ev *Evaluator) streamFilter(sc *streamCtx, e Select, pts region.Points) (region.Iterator, error) {
	arg, err := ev.stream(sc, e.Arg)
	if err != nil {
		return nil, err
	}
	sc.countOp()
	var keep func(region.Region) bool
	content := ev.in.Words().Document().Content()
	switch e.Mode {
	case SelContains:
		if pts.Len() == 0 {
			arg.Close()
			return sc.tap(region.Empty.Iter(), true), nil
		}
		keep = func(r region.Region) bool { return region.Within(pts, r) }
	case SelEquals:
		keep = func(r region.Region) bool { return content[r.Start:r.End] == e.W }
	default:
		keep = func(r region.Region) bool { return strings.HasPrefix(content[r.Start:r.End], e.W) }
	}
	return sc.tap(region.FilterIter(arg, keep), true), nil
}

// tap wraps an iterator with the pipeline's cross-cutting concerns:
// cancellation polling every streamPollStride emissions, per-region budget
// charging, and RegionsTouched accounting (operator taps only, matching the
// materializing count() which skips leaves).
func (sc *streamCtx) tap(it region.Iterator, countRegions bool) region.Iterator {
	return &tapIter{it: it, sc: sc, countRegions: countRegions}
}

// tapOver is the operator tap of an iterator that answers out of a name's
// set without streaming it. The name's leaf tap would have charged the
// budget one region for every region of the name pulled on the way to each
// answer; tapOver charges the same regions as the answers pass them, and
// the rest of the name when the answers run out, so a budget meters a
// probe exactly as it metered the sweep. Finding what an answer passed is a
// search of the name per answer, so without a budget to charge the name is
// not kept and nothing is searched.
func (sc *streamCtx) tapOver(it region.Iterator, name region.Set) region.Iterator {
	t := &tapIter{it: it, sc: sc, countRegions: true}
	if sc.budget != nil {
		t.over = name.Regions()
	}
	return t
}

type tapIter struct {
	it           region.Iterator
	sc           *streamCtx
	countRegions bool
	over         []region.Region // tapOver: the part of the name not yet passed
	n            int
	done         bool
	err          error
}

func (t *tapIter) Next() (region.Region, bool, error) {
	if t.done {
		return region.Region{}, false, t.err
	}
	if t.sc.check != nil && t.n%streamPollStride == 0 {
		if err := t.sc.check(); err != nil {
			t.done, t.err = true, err
			return region.Region{}, false, err
		}
	}
	t.n++
	r, ok, err := t.it.Next()
	if err == nil {
		// Every region flowing out of every operator charges the budget,
		// the streaming counterpart of materializing's per-result
		// cardinality charge: a full drain charges exactly the same total.
		charge := 0
		if ok {
			charge = 1
		}
		if t.over != nil {
			passed := len(t.over) // exhausted: the rest of the name
			if ok {
				passed = 1 + sort.Search(len(t.over), func(i int) bool { return !t.over[i].Before(r) })
			}
			t.over = t.over[passed:]
			charge += passed
		}
		err = t.sc.budget.charge(charge)
	}
	if err != nil || !ok {
		t.done, t.err = true, err
		return region.Region{}, false, err
	}
	if t.countRegions && t.sc.stats != nil {
		t.sc.stats.RegionsTouched++
	}
	return r, true, nil
}

func (t *tapIter) Close() {
	t.done = true
	t.it.Close()
}
