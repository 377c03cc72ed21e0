package algebra

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"qof/internal/index"
	"qof/internal/lru"
	"qof/internal/qerr"
	"qof/internal/region"
)

// ErrNotIndexed is wrapped by evaluation errors caused by a region name that
// the instance does not index. Callers detect it with errors.Is to decide
// whether a query needs the partial-indexing path.
var ErrNotIndexed = errors.New("region name is not indexed")

// Stats accumulates evaluation statistics for the experiments and for
// EXPLAIN output.
type Stats struct {
	Ops             int // operator applications
	DirectOps       int // of which ⊃d/⊂d
	RegionsTouched  int // total regions in intermediate results
	ResultCacheHits int // subexpressions answered from the cross-query cache
	ShortCircuits   int // binary operators answered ∅ without evaluating their right operand
	BlockerKernels  int // c ⊃ S kernels the ⊃d/⊂d sweeps ran over named sets c for their blockers
	PeakBytes       int // high-water mark of buffered region bytes (streaming evaluation)
}

// Evaluator evaluates region-algebra expressions against one index instance.
// The zero value is not usable; construct with NewEvaluator.
//
// An Evaluator holds no per-query state: the statistics, controls and
// pending cache writes of one evaluation live in a per-call context, so a
// single Evaluator serves any number of concurrent Eval/EvalStats calls
// with no locking, provided its configuration fields are not mutated while
// calls are in flight.
type Evaluator struct {
	in *index.Instance

	// UseLayeredDirect evaluates ⊃d with the paper's layered while-loop
	// program (Section 3.1) instead of the nearest-container sweep.
	// It exists to reproduce the paper's cost argument; results agree on
	// properly nested instances.
	UseLayeredDirect bool

	// Results, when non-nil, is a cross-query cache of subexpression
	// results (the engine's LRU), keyed by the expression's text: an
	// evaluator reads one instance, and an instance never changes. Only
	// expressions whose static Cost reaches DefaultResultMinCost are
	// consulted and stored.
	Results *lru.Cache[string, region.Set]

	// Deprecated: CostStats is ignored. A binary operator evaluates its
	// left operand first, in the order the plan has. The field stays only
	// because the benchmark (bench/trace.go) still sets it, until
	// ROADMAP.md's item "thaw the benchmark" (item 1) moves it off.
	CostStats *index.Instance
}

// DefaultResultMinCost is the static-cost threshold below which results are
// not worth caching across queries: anything cheaper than one inclusion
// sweep is recomputed faster than it is looked up and stored.
const DefaultResultMinCost = CostInclusion

// NewEvaluator creates an evaluator over the instance.
func NewEvaluator(in *index.Instance) *Evaluator {
	return &Evaluator{in: in}
}

// Budget is the per-query region allowance shared by every evaluation of
// one query: each operator result charges its cardinality, and crossing the
// limit aborts the evaluation with an error wrapping qerr.ErrBudgetExceeded.
// A Budget is not safe for concurrent use — the engine evaluates phase-1
// expressions of one query sequentially — and a nil *Budget is unlimited.
type Budget struct {
	max       int
	remaining int
}

// NewBudget creates a budget of maxRegions cumulative result regions;
// maxRegions <= 0 returns nil (unlimited).
func NewBudget(maxRegions int) *Budget {
	if maxRegions <= 0 {
		return nil
	}
	return &Budget{max: maxRegions, remaining: maxRegions}
}

// Used reports how many regions have been charged so far; 0 for a nil
// (unlimited) budget.
func (b *Budget) Used() int {
	if b == nil {
		return 0
	}
	return b.max - b.remaining
}

// charge deducts n regions, failing once the allowance is spent.
func (b *Budget) charge(n int) error {
	if b == nil {
		return nil
	}
	b.remaining -= n
	if b.remaining < 0 {
		return fmt.Errorf("algebra: regions budget of %d exceeded: %w", b.max, qerr.ErrBudgetExceeded)
	}
	return nil
}

// pendingPut is a result-cache write held back until the whole evaluation
// succeeds, so a canceled or budget-killed call never publishes anything.
type pendingPut struct {
	key string
	set region.Set
}

// evalCtx is the state of one evaluation call: the stats sink, and the
// cancellation and budget controls. Keeping it out of the Evaluator is what
// makes overlapping calls safe without locks. There is no per-call memo of
// subexpression results: a duplicated subexpression evaluates twice, which
// costs less than rendering a memo key at every operator.
type evalCtx struct {
	stats *Stats

	// cctx, when non-nil, is the evaluation's context: eval polls it at
	// every operator application and the region kernels poll it through
	// chk mid-sweep, so deadlines and cancels take effect inside one
	// operator, not only between queries. It is nil when the caller's
	// context can never be canceled.
	cctx context.Context
	// chk is poll as the region kernels' Checker. It is allocated once per
	// pooled context (it reads cctx at call time), never per evaluation.
	chk region.Checker

	// budget, when non-nil, is the query's region allowance.
	budget *Budget

	// results is the cross-query result cache this evaluation reads and
	// writes: the evaluator's, or nil when a stream evaluates an operand.
	results *lru.Cache[string, region.Set]

	// pending holds result-cache writes until the evaluation completes;
	// a failed evaluation discards them (canceled, timed out or
	// budget-killed evaluations must never be cached).
	pending []pendingPut
}

// poll returns the context error once the evaluation's context is done.
func (ctx *evalCtx) poll() error {
	if ctx.cctx == nil {
		return nil
	}
	return pollDone(ctx.cctx)
}

// pollDone returns cctx's error once cctx is done. It receives from Done
// without blocking and reads Err only once Done is closed, as the context
// contract allows: a cancelable context's Err takes its mutex, its Done is
// one atomic load.
func pollDone(cctx context.Context) error {
	select {
	case <-cctx.Done():
		return cctx.Err()
	default:
		return nil
	}
}

// checker returns the kernel Checker for this evaluation, nil when the
// evaluation is not cancelable (so kernels skip polling entirely).
func (ctx *evalCtx) checker() region.Checker {
	if ctx.cctx == nil {
		return nil
	}
	return ctx.chk
}

// Eval evaluates e and returns the resulting region set.
func (ev *Evaluator) Eval(e Expr) (region.Set, error) {
	return ev.EvalStats(e, nil)
}

// ctxPool recycles evaluation contexts across calls. The kernel checker
// closure is allocated here, once per pooled context.
var ctxPool = sync.Pool{New: func() any {
	ctx := &evalCtx{}
	ctx.chk = ctx.poll
	return ctx
}}

// EvalStats evaluates e, accumulating statistics into st when non-nil.
// This is the entry point for concurrent callers: each call gets its own
// stats sink, so overlapping calls on one Evaluator never contend.
func (ev *Evaluator) EvalStats(e Expr, st *Stats) (region.Set, error) {
	return ev.EvalContext(context.Background(), e, st, nil)
}

// EvalContext evaluates e under a context and an optional region budget.
// Cancellation and deadline expiry are polled at every operator application
// and inside the region kernels (inclusion sweeps, the layered ⊃d loop,
// word selection), so they take effect mid-evaluation; the error is then
// ctx.Err() (context.Canceled or context.DeadlineExceeded). Budget
// exhaustion surfaces as an error wrapping qerr.ErrBudgetExceeded. A failed
// evaluation writes nothing to the cross-query result cache.
func (ev *Evaluator) EvalContext(cctx context.Context, e Expr, st *Stats, b *Budget) (region.Set, error) {
	return ev.evaluate(cctx, e, st, b, ev.Results)
}

// evaluate is EvalContext reading and writing the result cache results,
// which may be nil.
func (ev *Evaluator) evaluate(cctx context.Context, e Expr, st *Stats, b *Budget, results *lru.Cache[string, region.Set]) (region.Set, error) {
	ctx := ctxPool.Get().(*evalCtx)
	ctx.stats = st
	if cctx != nil && cctx.Done() != nil {
		ctx.cctx = cctx
	}
	ctx.budget = b
	ctx.results = results
	out, err := ev.eval(ctx, e)
	if err == nil && results != nil {
		for _, p := range ctx.pending {
			results.Add(p.key, p.set)
		}
	}
	for i := range ctx.pending {
		ctx.pending[i] = pendingPut{}
	}
	ctx.pending = ctx.pending[:0]
	ctx.stats, ctx.cctx, ctx.budget, ctx.results = nil, nil, nil, nil
	ctxPool.Put(ctx)
	return out, err
}

func (ev *Evaluator) eval(ctx *evalCtx, e Expr) (region.Set, error) {
	if err := ctx.poll(); err != nil {
		return region.Empty, err
	}
	var rkey string
	// The key is computed once here and shared by the cache read and the
	// deferred write. Leaves cost nothing, so they are never kept.
	if ctx.results != nil && CostAtLeast(e, DefaultResultMinCost) {
		rkey = e.String()
		// Budgeted evaluations bypass cache reads (writes still happen):
		// a cached subexpression skips the very work the budget meters,
		// which would make budget enforcement depend on cache state.
		if ctx.budget == nil {
			if s, ok := ctx.results.Get(rkey); ok {
				if ctx.stats != nil {
					ctx.stats.ResultCacheHits++
				}
				return s, nil
			}
		}
	}
	out, err := ev.evalUncached(ctx, e)
	if err != nil {
		return out, err
	}
	// Every operator result charges the region budget, leaves included: a
	// hostile chain's cost shows up in its intermediate cardinalities.
	if err := ctx.budget.charge(out.Len()); err != nil {
		return region.Empty, err
	}
	if rkey != "" {
		// Held back until the whole evaluation succeeds: a killed
		// evaluation must never publish cache entries.
		ctx.pending = append(ctx.pending, pendingPut{key: rkey, set: out})
	}
	return out, nil
}

func (ev *Evaluator) evalUncached(ctx *evalCtx, e Expr) (region.Set, error) {
	switch e := e.(type) {
	case Name:
		s, ok := ev.in.Region(e.Ident)
		if !ok {
			return region.Empty, fmt.Errorf("algebra: region %q: %w", e.Ident, ErrNotIndexed)
		}
		return s, nil
	case Word:
		return ev.in.Words().MatchPoints(e.W), nil
	case Prefix:
		return ev.in.Words().PrefixMatchPoints(e.P), nil
	case Match:
		return ev.in.Words().SubstringMatchPoints(e.S), nil
	case Select:
		arg, err := ev.eval(ctx, e.Arg)
		if err != nil {
			return region.Empty, err
		}
		var out region.Set
		switch e.Mode {
		case SelContains:
			out, err = ev.in.Words().SelectContainingCtl(arg, e.W, ctx.checker())
		case SelEquals:
			out, err = ev.in.Words().SelectEqualsCtl(arg, e.W, ctx.checker())
		default:
			out, err = ev.in.Words().SelectPrefixCtl(arg, e.W, ctx.checker())
		}
		if err != nil {
			return region.Empty, err
		}
		ctx.count(out, false)
		return out, nil
	case Unary:
		arg, err := ev.eval(ctx, e.Arg)
		if err != nil {
			return region.Empty, err
		}
		var out region.Set
		if e.Op == OpInnermost {
			out = arg.Innermost()
		} else {
			out = arg.Outermost()
		}
		ctx.count(out, false)
		return out, nil
	case Near:
		l, err := ev.eval(ctx, e.E)
		if err != nil {
			return region.Empty, err
		}
		to, err := ev.eval(ctx, e.To)
		if err != nil {
			return region.Empty, err
		}
		out := evalNear(l, to, e.K)
		ctx.count(out, false)
		return out, nil
	case Freq:
		arg, err := ev.eval(ctx, e.Arg)
		if err != nil {
			return region.Empty, err
		}
		out := ev.evalFreq(arg, e.W, e.N)
		ctx.count(out, false)
		return out, nil
	case Binary:
		l, err := ev.eval(ctx, e.L)
		if err != nil {
			return region.Empty, err
		}
		if l.IsEmpty() && e.Op != OpUnion && ev.safeToSkip(e.R) {
			// Every operator but ∪ is empty when its left operand is, and
			// the skipped side cannot fail, so its evaluation is pure cost.
			if ctx.stats != nil {
				ctx.stats.ShortCircuits++
			}
			return region.Empty, nil
		}
		r, err := ev.eval(ctx, e.R)
		if err != nil {
			return region.Empty, err
		}
		out, err := ev.apply(ctx, e, l, r)
		if err != nil {
			return region.Empty, err
		}
		ctx.count(out, e.Op.IsDirect())
		return out, nil
	default:
		return region.Empty, fmt.Errorf("algebra: unknown expression %T", e)
	}
}

// safeToSkip reports whether e can be skipped without losing an error:
// evaluation only fails on region names the instance does not index, so an
// expression whose names are all indexed evaluates without error.
func (ev *Evaluator) safeToSkip(e Expr) bool {
	safe := true
	Walk(e, func(x Expr) {
		if n, ok := x.(Name); ok && !ev.in.Has(n.Ident) {
			safe = false
		}
	})
	return safe
}

// apply computes e's operator over its operands' answers. ⊃d and ⊂d read
// the instance's named sets for the regions that may lie in between.
func (ev *Evaluator) apply(ctx *evalCtx, e Binary, l, r region.Set) (region.Set, error) {
	switch e.Op {
	case OpUnion:
		return l.Union(r), nil
	case OpDiff:
		return l.Diff(r), nil
	case OpIntersect:
		return l.Intersect(r), nil
	case OpIncluding:
		return l.IncludingCtl(r, ctx.checker())
	case OpIncluded:
		return l.IncludedCtl(r, ctx.checker())
	case OpDirIncluding:
		if ev.UseLayeredDirect {
			return ev.layeredDirectlyIncluding(ctx.checker(), l, r)
		}
		return region.DirectlyIncluding(l, r, ev.in.Sets(), ctx.checker(), ctx.blockerKernels())
	case OpDirIncluded:
		return region.DirectlyIncluded(l, r, ev.in.Sets(), ctx.checker(), ctx.blockerKernels())
	default:
		return region.Empty, fmt.Errorf("algebra: unknown operator %v", e.Op)
	}
}

// blockerKernels is the counter the direct sweeps count their blocker
// kernels in, nil when the evaluation keeps no statistics.
func (ctx *evalCtx) blockerKernels() *int {
	if ctx.stats == nil {
		return nil
	}
	return &ctx.stats.BlockerKernels
}

func (ctx *evalCtx) count(out region.Set, direct bool) {
	if ctx.stats == nil {
		return
	}
	ctx.stats.Ops++
	if direct {
		ctx.stats.DirectOps++
	}
	ctx.stats.RegionsTouched += out.Len()
}

// layeredDirectlyIncluding computes R ⊃d S with the paper's Section 3.1
// program: iterate over nested layers of R (outermost first) and, for each
// layer, select the layer regions that include an S region with no other
// indexed region in between. The in-between test subtracts the S regions
// that sit strictly inside some indexed region T strictly inside the layer
// (the paper writes S ⊂ T ⊂ R_layer; strict inclusion realises the "other
// region" condition under position-pair identity).
//
// The program is exact on properly nested universes — the case the paper's
// structuring schemas produce — and exists mainly to exhibit the cost of ⊃d
// relative to ⊃. The while-loop polls check at every layer (and passes it
// into each inner sweep), so a deadline interrupts even a deep ⊃d chain over
// a hostile document mid-operator. Both evaluators call it, which is why it
// takes a bare Checker.
func (ev *Evaluator) layeredDirectlyIncluding(check region.Checker, R, S region.Set) (region.Set, error) {
	layer := R.Outermost()
	rest := R.Diff(layer)
	result := region.Empty
	for {
		if check != nil {
			if err := check(); err != nil {
				return region.Empty, err
			}
		}
		cont, err := layer.IncludingCtl(S, check)
		if err != nil {
			return region.Empty, err
		}
		if cont.IsEmpty() {
			return result, nil
		}
		blocked := region.Empty
		for _, tName := range ev.in.Names() {
			T := ev.in.MustRegion(tName)
			between, err := T.IncludedCtl(layer, check) // T regions strictly inside a layer region
			if err != nil {
				return region.Empty, err
			}
			inner, err := S.IncludedCtl(between, check)
			if err != nil {
				return region.Empty, err
			}
			blocked = blocked.Union(inner)
		}
		sel, err := layer.IncludingCtl(S.Diff(blocked), check)
		if err != nil {
			return region.Empty, err
		}
		result = result.Union(sel)
		layer = rest.Outermost()
		rest = rest.Diff(layer)
	}
}
