package algebra

// Streaming evaluation: Stream compiles an expression into a pull-based
// region.Iterator pipeline instead of materializing every operator result.
// The set operators become sorted merge iterators, the inclusion operators
// window/merge iterators with bounded lookahead, and the leaves stream off
// the index postings, so a consumer that stops early (LIMIT, budget,
// cancellation) pays only for the prefix it reads. Where an operator's left
// operand is a bare name whose set is disjoint, the name is not streamed at
// all: the other operand — a stream, a posting list, a run of the value
// order — probes the set in hand (streamProbe, streamSelect), which costs
// what that operand does and is metered as the sweep was (tapOver).
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
//   - No CSE memo and no subexpression result-cache reads: duplicated
//     subexpressions are re-evaluated. The engine still serves a whole
//     candidate expression from the cross-query cache (CachedResultKey) and
//     publishes fully drained streams (PublishResultKey).
//   - Budget charging is per region as it flows through each operator — the
//     per-region analogue of the set evaluator's per-result charge. Totals
//     for a full drain are close but not ordered: the memo and the
//     empty-operand short-circuit can make the set evaluation cheaper,
//     while merge iterators that exhaust one operand early make the stream
//     cheaper. A partially consumed stream charges only for the prefix
//     actually pulled.
//   - Stats.Ops/DirectOps count pipeline construction; RegionsTouched
//     counts regions actually emitted; PeakBytes records the high-water
//     mark of buffers the pipeline had to materialize (proximity targets,
//     direct-operator right sides).
//
// A small number of operators have no streaming form, because they need a
// whole operand to decide membership: Near materializes its target side,
// and the direct operators (⊃d/⊂d) materialize their right side (plus, for
// the layered variant, the left side). Those buffers are metered into
// PeakBytes.

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
// region names are reported immediately, before any region flows.
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
		sc.check = cctx.Err
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
func (sc *streamCtx) countOp(direct bool) {
	if sc.stats == nil {
		return
	}
	sc.stats.Ops++
	if direct {
		sc.stats.DirectOps++
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
	case Word:
		s := ev.in.Words().MatchPoints(e.W)
		sc.meter(s.Len())
		return sc.tap(s.Iter(), false), nil
	case Prefix:
		s := ev.in.Words().PrefixMatchPoints(e.P)
		sc.meter(s.Len())
		return sc.tap(s.Iter(), false), nil
	case Match:
		s := ev.in.Words().SubstringMatchPoints(e.S)
		sc.meter(s.Len())
		return sc.tap(s.Iter(), false), nil
	case Select:
		return ev.streamSelect(sc, e)
	case Unary:
		arg, err := ev.stream(sc, e.Arg)
		if err != nil {
			return nil, err
		}
		sc.countOp(false)
		if e.Op == OpInnermost {
			return sc.tap(region.InnermostIter(arg), true), nil
		}
		return sc.tap(region.OutermostIter(arg), true), nil
	case Near:
		l, err := ev.stream(sc, e.E)
		if err != nil {
			return nil, err
		}
		// Proximity needs the whole target side: any target anywhere in
		// the document can witness a region of E. Materialize it.
		to, err := ev.streamMaterialize(sc, e.To)
		if err != nil {
			l.Close()
			return nil, err
		}
		sc.countOp(false)
		return sc.tap(streamNear(l, to, e.K), true), nil
	case Freq:
		arg, err := ev.stream(sc, e.Arg)
		if err != nil {
			return nil, err
		}
		sc.countOp(false)
		return sc.tap(ev.streamFreq(arg, e), true), nil
	case Binary:
		if it, err := ev.streamProbe(sc, e); it != nil || err != nil {
			return it, err
		}
		l, err := ev.stream(sc, e.L)
		if err != nil {
			return nil, err
		}
		it, err := ev.streamBinary(sc, e, l)
		if err != nil {
			l.Close()
			return nil, err
		}
		sc.countOp(e.Op.IsDirect())
		return sc.tap(it, true), nil
	default:
		return nil, fmt.Errorf("algebra: unknown expression %T", e)
	}
}

func (ev *Evaluator) streamBinary(sc *streamCtx, e Binary, l region.Iterator) (region.Iterator, error) {
	switch e.Op {
	case OpUnion, OpDiff, OpIntersect, OpIncluding, OpIncluded:
		r, err := ev.stream(sc, e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case OpUnion:
			return region.UnionIter(l, r), nil
		case OpDiff:
			return region.DiffIter(l, r), nil
		case OpIntersect:
			return region.IntersectIter(l, r), nil
		case OpIncluding:
			return region.IncludingIter(l, r, sc.check), nil
		default:
			return region.IncludedIter(l, r), nil
		}
	case OpDirIncluding:
		// The direct operators consult the universe forest per region; the
		// right side must be complete before the first answer is known.
		S, err := ev.streamMaterialize(sc, e.R)
		if err != nil {
			return nil, err
		}
		if ev.UseLayeredDirect {
			// The layered program is a whole-set while-loop; run it over
			// materialized operands and stream the result out.
			L, err := region.Materialize(l)
			if err != nil {
				return nil, err
			}
			sc.meter(L.Len())
			out, err := ev.layeredDirectlyIncluding(sc.check, L, S)
			if err != nil {
				return nil, err
			}
			sc.meter(out.Len())
			return out.Iter(), nil
		}
		u, err := ev.in.UniverseCtl(sc.check)
		if err != nil {
			return nil, err
		}
		candSet, err := u.DirectContainersOf(S, sc.check)
		if err != nil {
			return nil, err
		}
		sc.meter(candSet.Len())
		return region.IntersectIter(l, candSet.Iter()), nil
	case OpDirIncluded:
		S, err := ev.streamMaterialize(sc, e.R)
		if err != nil {
			return nil, err
		}
		u, err := ev.in.UniverseCtl(sc.check)
		if err != nil {
			return nil, err
		}
		return region.FilterIter(l, func(r region.Region) bool { return u.DirectlyWithin(r, S) }), nil
	default:
		return nil, fmt.Errorf("algebra: unknown operator %v", e.Op)
	}
}

// streamMaterialize evaluates a subexpression to a full Set through its own
// streaming pipeline (so budget, polling and stats still apply) and meters
// the buffer.
func (ev *Evaluator) streamMaterialize(sc *streamCtx, e Expr) (region.Set, error) {
	it, err := ev.stream(sc, e)
	if err != nil {
		return region.Empty, err
	}
	s, err := region.Materialize(it)
	if err != nil {
		return region.Empty, err
	}
	sc.meter(s.Len())
	return s, nil
}

// streamProbe builds Name ⊃ X and Name ⊂ X for a disjoint name without
// streaming the name: X is pulled one region at a time and each region
// gallops in the name's slice, so the operator costs what X does and a
// LIMIT downstream still stops X early. It returns nil for every other
// shape; those merge two streams (region.IncludingIter, IncludedIter).
func (ev *Evaluator) streamProbe(sc *streamCtx, e Binary) (region.Iterator, error) {
	if e.Op != OpIncluding && e.Op != OpIncluded {
		return nil, nil
	}
	n, ok := e.L.(Name)
	if !ok {
		return nil, nil
	}
	set, _ := ev.in.Region(n.Ident) // validated in Stream
	if set.IsEmpty() || !set.Disjoint() {
		return nil, nil
	}
	x, err := ev.stream(sc, e.R)
	if err != nil {
		return nil, err
	}
	sc.countOp(false)
	if e.Op == OpIncluding {
		return sc.tapOver(region.IncludingSetIter(set, x), set), nil
	}
	return sc.tapOver(region.IncludedSetIter(set, x), set), nil
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
		sc.countOp(false)
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
	sc.countOp(false)
	return sc.tapOver(out.Iter(), set), nil
}

// streamFilter applies σ as a filter over the streaming argument, with the
// predicates the WordIndex kernels use.
func (ev *Evaluator) streamFilter(sc *streamCtx, e Select, pts region.Points) (region.Iterator, error) {
	arg, err := ev.stream(sc, e.Arg)
	if err != nil {
		return nil, err
	}
	sc.countOp(false)
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

// streamFreq applies the frequency selection as a filter, mirroring
// evalFreq's counting sweep per region.
func (ev *Evaluator) streamFreq(arg region.Iterator, e Freq) region.Iterator {
	if e.N <= 0 {
		return arg
	}
	occ := ev.in.Words().Postings(e.W)
	if occ.Len() < e.N {
		arg.Close()
		return region.Empty.Iter()
	}
	return region.FilterIter(arg, func(r region.Region) bool { return freqWithin(occ, r, e.N) })
}

// streamNear applies the proximity selection as a filter over the streaming
// left side against materialized targets, with evalNear's test per region.
func streamNear(l region.Iterator, to region.Set, k int) region.Iterator {
	if to.IsEmpty() {
		l.Close()
		return region.Empty.Iter()
	}
	return region.FilterIter(l, nearTest(to, k))
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
