// Package engine executes compiled query plans against an indexed document,
// implementing the paper's evaluation strategy end to end:
//
//  1. evaluate the optimized inclusion expression on the indexing engine to
//     obtain candidate regions (Sections 5.1 and 6.1);
//  2. when the plan is not exact, parse only the candidate regions with the
//     structuring schema and filter the resulting objects in the database
//     (Section 6.2) — the whole file is never scanned;
//  3. produce the SELECT output, using the index alone when the projection
//     chain is exact (no file access beyond the projected regions).
//
// The engine reports detailed statistics (candidates, parsed regions and
// bytes, filtering) that the benchmarks and EXPLAIN output rely on.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"qof/internal/algebra"
	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/qerr"
	"qof/internal/region"
	"qof/internal/xsql"
)

// Engine evaluates queries over one indexed document.
//
// An Engine is safe for concurrent use: Execute may be called from any
// number of goroutines. The catalog, instance and evaluator are read-only
// during execution, per-query state lives in the Result, and the catalog's
// prepared queries — plans belong to the schema, not to a file's engine —
// synchronize internally.
type Engine struct {
	cat     *compile.Catalog
	in      *index.Instance
	ev      *algebra.Evaluator
	results *ResultCache
	choice  *compile.Choice // the instance's indexing choice, resolved once
}

// New creates an engine over the catalog and instance, with the
// cross-query result cache. The instance's own figures (region
// cardinalities, word frequencies) order each plan's operands.
func New(cat *compile.Catalog, in *index.Instance) *Engine {
	e := &Engine{
		cat:     cat,
		in:      in,
		ev:      algebra.NewEvaluator(in),
		results: NewResultCache(resultCacheCap),
		choice:  cat.Choice(in),
	}
	e.ev.Results = e.results
	return e
}

// Instance returns the engine's index instance.
func (e *Engine) Instance() *index.Instance { return e.in }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *compile.Catalog { return e.cat }

// DisableResultCache turns off the cross-query result cache. It is
// configuration: call it before the engine starts serving. Benchmarks use
// it to isolate the cache's contribution.
func (e *Engine) DisableResultCache() {
	e.ev.Results = nil
	e.results = nil
}

// CacheCounters reports the result cache's cumulative hits and misses, for
// throughput reports.
func (e *Engine) CacheCounters() (resultHits, resultMisses int) {
	if e.results != nil {
		resultHits, resultMisses = e.results.Counters()
	}
	return
}

// Stats describes how a query was executed.
type Stats struct {
	Candidates  int  // candidate regions after phase 1
	Parsed      int  // regions the grammar ran over in phase 2; 0 when the plan reads nothing of them
	ParsedBytes int  // bytes covered by parsed regions
	Results     int  // final result size
	Exact       bool // phase-2 filtering was skipped (Section 6.3)
	IndexOnly   bool // answered without parsing anything
	FullScan    bool // the index offered no narrowing
	JoinFast    bool // the Section 5.2 region-level join was used
	PlanCached  bool // the catalog had the plan: nothing was compiled

	// ResultCached reports that the candidate set itself was served from
	// the cross-query result cache (phase 1 skipped); ResultCacheHits
	// counts every subexpression answered from it, candidates included.
	ResultCached    bool
	ResultCacheHits int

	// PeakBytes approximates the high-water mark of region-buffer memory
	// the execution held, at region.Bytes a region: every operator result of
	// a set evaluation (an upper bound, since a result lives only until its
	// parent has run), only the buffers a stream cannot avoid (proximity
	// targets, direct-operator sides), plus the engine's candidate and
	// result buffers.
	PeakBytes int

	// Wall-clock breakdown: query compilation + optimization, index
	// evaluation (phase 1), and candidate parsing + filtering +
	// projection (phase 2). For a plan that streams its candidates phase 1
	// is pipeline construction and the two phases overlap; Phase2Time then
	// covers the interleaved drain. For a plan that needs the complete
	// candidate set phase 1 is its evaluation (a fast join's leaf chains
	// and an index-only projection's chain count as phase 2).
	CompileTime time.Duration
	Phase1Time  time.Duration
	Phase2Time  time.Duration
}

// Result is the outcome of a query.
type Result struct {
	// Regions holds the regions of the selected objects, in document order.
	// A whole-object select answers with them alone; Objects builds the
	// objects when somebody wants them.
	Regions region.Set
	// Strings holds the projected values for path selects, in document
	// order (duplicates preserved).
	Strings []string
	// Projected reports whether Strings is the result form.
	Projected bool
	Plan      *compile.Plan
	Stats     Stats

	eng *Engine // the engine whose instance Regions refer to
}

// Explain renders the plan.
func (r *Result) Explain() string { return r.Plan.Explain() }

// Objects parses the selected regions of a whole-object select into their
// complete database values, in document order; nil for a path select.
// Phase 2 builds only what the query reads and an exact plan parses nothing,
// so this is where a selected object is built, on demand, in full.
func (r *Result) Objects() ([]db.Value, error) {
	if r.Projected || r.Regions.Len() == 0 {
		return nil, nil
	}
	nt := r.Plan.Var(r.Plan.Query.Select.Var).NT
	out := make([]db.Value, 0, r.Regions.Len())
	for _, reg := range r.Regions.Regions() {
		v, err := r.eng.parseValue(nt, reg, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Limits are per-query resource budgets, enforced at the same poll points
// as cancellation. The zero value is unlimited. Budget violations surface
// as errors wrapping qerr.ErrBudgetExceeded and are deterministic: the same
// query over the same index trips at the same point every time.
type Limits struct {
	// MaxRegions caps the cumulative number of regions produced by
	// phase-1 operator applications (leaves included), bounding the work
	// a hostile inclusion chain can do on the indexing engine.
	MaxRegions int
	// MaxEvalBytes caps the document bytes parsed in phase 2, full scans
	// included, bounding structured-parsing work and memory.
	MaxEvalBytes int
}

// execEnv carries one execution's cancellation and budget state across the
// engine's phases. Only the execution's own goroutine charges the byte
// budget: phase-2 workers get an execEnv without one.
type execEnv struct {
	ctx    context.Context
	lim    Limits
	budget *algebra.Budget // phase-1 region budget; nil = unlimited

	bytesUsed int // phase-2 parsed bytes so far
}

// poll returns the context error once the execution's context is done.
func (es *execEnv) poll() error {
	if es.ctx.Done() == nil {
		return nil
	}
	return es.ctx.Err()
}

// chargeBytes deducts n parsed bytes from the byte budget.
func (es *execEnv) chargeBytes(n int) error {
	if es.lim.MaxEvalBytes <= 0 {
		return nil
	}
	if es.bytesUsed += n; es.bytesUsed > es.lim.MaxEvalBytes {
		return fmt.Errorf("engine: eval-bytes budget of %d exceeded: %w",
			es.lim.MaxEvalBytes, qerr.ErrBudgetExceeded)
	}
	return nil
}

// Execute compiles and runs the query. The catalog keeps prepared queries by
// normalized text, so repeats skip compilation on every file of the schema.
func (e *Engine) Execute(q *xsql.Query) (*Result, error) {
	return e.ExecuteContext(context.Background(), q, Limits{})
}

// ExecuteContext is ExecutePrepared on the catalog's prepared form of q.
func (e *Engine) ExecuteContext(ctx context.Context, q *xsql.Query, lim Limits) (*Result, error) {
	return e.ExecutePrepared(ctx, e.cat.PrepareQuery(q), lim)
}

// ExecutePrepared runs a prepared query of the engine's catalog under a
// context and per-query resource budgets. Cancellation and deadlines are
// polled cooperatively at every phase-1 operator application, inside the
// region kernels, and per phase-2 candidate, so they take effect
// mid-evaluation; the returned error is then ctx.Err() (context.Canceled or
// context.DeadlineExceeded). Budget violations wrap qerr.ErrBudgetExceeded.
// A failed execution is never cached — neither its candidate sets nor
// partial results — and leaves the engine fully usable.
func (e *Engine) ExecutePrepared(ctx context.Context, p *compile.Prepared, lim Limits) (*Result, error) {
	es := &execEnv{ctx: ctx, lim: lim, budget: algebra.NewBudget(lim.MaxRegions)}
	if err := es.poll(); err != nil {
		return nil, err
	}
	start := time.Now()
	plan, cached, err := p.Plan(e.choice)
	if err != nil {
		return nil, err
	}
	q := plan.Query
	res := &Result{Plan: plan, Projected: len(q.Select.Segs) > 0, eng: e}
	res.Stats.PlanCached = cached
	res.Stats.CompileTime = time.Since(start)
	if plan.Trivial {
		return res, nil
	}
	if len(q.From) == 1 {
		if err := e.executeSingle(es, q, plan, res); err != nil {
			return nil, err
		}
	} else {
		if err := e.executeMulti(es, q, plan, res); err != nil {
			return nil, err
		}
	}
	if res.Projected {
		res.Stats.Results = len(res.Strings)
	} else {
		res.Stats.Results = res.Regions.Len()
	}
	return res, nil
}

// evalExpr runs an algebra expression through the evaluator under the
// execution's context and region budget, and folds the per-call evaluator
// statistics (result-cache hits) into the result's stats.
func (e *Engine) evalExpr(es *execEnv, x algebra.Expr, res *Result) (region.Set, error) {
	var ast algebra.Stats
	s, err := e.ev.EvalContext(es.ctx, x, &ast, es.budget)
	res.Stats.ResultCacheHits += ast.ResultCacheHits
	// A set evaluation holds each operator result until its parent has
	// run, so the regions touched bound the buffer peak from above.
	res.Stats.PeakBytes += ast.PeakBytes + region.Bytes*ast.RegionsTouched
	return s, err
}

// executeSingle runs the one-range-variable fast path. The plan's shape
// picks the phase-1 evaluator, and nothing a caller can set does: an
// index-only projection and a Section 5.2 fast join need the complete
// candidate set before they can answer, and a full scan has it already, so
// those run on the set evaluator (algebra.EvalContext: subexpression
// cache reads, small-side kernels); every other plan pulls its
// candidates off an iterator pipeline (algebra.Stream) while phase 2 is
// already parsing them, unless it is a LIMIT query's repeat (streamSingle's
// doorkeeper). Either way the candidates reach phase 2 as an
// iterator, so there is one parse-and-filter loop and a LIMIT stops it.
func (e *Engine) executeSingle(es *execEnv, q *xsql.Query, plan *compile.Plan, res *Result) error {
	vp := &plan.Vars[0]
	res.Stats.Exact = vp.Exact
	phase1 := time.Now()
	defer func() { res.Stats.Phase2Time = time.Since(phase1) - res.Stats.Phase1Time }()

	if vp.Candidates != nil && plan.JoinFast == nil && !plan.IndexOnly() {
		return e.streamSingle(es, q, plan, vp, res, phase1)
	}
	candidates, err := e.candidateSet(es, vp, res)
	if err != nil {
		return err
	}
	res.Stats.Candidates = candidates.Len()
	res.Stats.Phase1Time = time.Since(phase1)

	// Index-only projection: exact candidates plus an exact projection
	// chain answer the query without touching the file.
	if plan.IndexOnly() {
		projected, err := e.evalExpr(es, plan.Projection.Chain.Expr(), res)
		if err != nil {
			return fmt.Errorf("engine: evaluating projection: %w", err)
		}
		within := projected.Included(candidates)
		content := e.in.Document().Content()
		for _, r := range within.Regions() {
			if q.Limit > 0 && len(res.Strings) >= q.Limit {
				break
			}
			// The projection plan is only exact for faithful leaves,
			// whose region text is the database value verbatim.
			res.Strings = append(res.Strings, content[r.Start:r.End])
		}
		res.Stats.IndexOnly = true
		return nil
	}

	// Section 5.2 fast join: decide the path comparison from the leaf
	// regions alone, then parse only the matching objects.
	if plan.JoinFast != nil && !res.Stats.FullScan {
		jf := plan.JoinFast
		matched, ok, err := e.joinFastCandidates(es, jf, candidates, res)
		if err != nil {
			return err
		}
		if ok {
			res.Stats.JoinFast = true
			candidates = matched
			vp = &compile.VarPlan{Var: vp.Var, NT: vp.NT, Exact: true, Reads: jf.Reads}
		}
	}

	// Phase 2: parse candidates, filter unless exact, project.
	src := candidates.Iter()
	defer src.Close()
	em := newEmitter(q, plan, res)
	defer em.finish()
	_, _, err = e.streamPhase2(es, plan, vp, src, res, em)
	return err
}

// resultKey is the cross-query result cache's key for vp's candidates, or
// "" when the cache is off or the candidates cost too little to keep.
func (e *Engine) resultKey(vp *compile.VarPlan) string {
	if e.results == nil || !algebra.CostAtLeast(vp.Candidates, algebra.DefaultResultMinCost) {
		return ""
	}
	return vp.CandidatesKey
}

// candidateSet is phase 1 of a plan that needs one variable's complete
// candidate set: the cross-query result cache's copy, the set evaluator's
// answer, or — when the index offers no narrowing — a full scan, which
// parses the document under the index need {NT} and takes every NT region.
// A full scan charges the byte budget the whole document first, and counts
// it in ParsedBytes and every region it found in Parsed; phase 2 then counts
// what it parses of each candidate on top.
func (e *Engine) candidateSet(es *execEnv, vp *compile.VarPlan, res *Result) (region.Set, error) {
	if vp.Candidates == nil {
		res.Stats.FullScan = true
		doc := e.in.Document()
		if err := es.chargeBytes(doc.Len()); err != nil {
			return region.Empty, err
		}
		named, _, err := e.cat.Grammar.Regions(es.ctx, doc, grammar.IndexSpec{Names: []string{vp.NT}}, e.cat.Grammar.Root(), 0, int32(doc.Len()))
		if err != nil {
			return region.Empty, fmt.Errorf("engine: full scan parse: %w", err)
		}
		res.Stats.Parsed += named[vp.NT].Len()
		res.Stats.ParsedBytes += doc.Len()
		return named[vp.NT], nil
	}
	// A region budget must meter the actual phase-1 work, so budgeted
	// queries bypass the cross-query cache: a warm cache would otherwise
	// decide whether the budget applies at all.
	if key := e.resultKey(vp); key != "" && es.budget == nil {
		if s, ok := e.results.Get(key); ok {
			res.Stats.ResultCached = true
			res.Stats.ResultCacheHits++
			return s, nil
		}
	}
	s, err := e.evalExpr(es, vp.Candidates, res)
	if err != nil {
		return region.Empty, fmt.Errorf("engine: evaluating candidates: %w", err)
	}
	return s, nil
}

// processCandidate does the per-candidate phase-2 work — poll, fault
// injection, byte budget (a worker's execEnv has none: the drain charged the
// candidate when it cut it), parse, build, filter. It parses with the plan's read set, so obj holds
// what the filter and the projection navigate and nothing else; a plan that reads nothing of its candidates (an exact
// whole-object select) has nothing to decide and nothing to build, and its
// candidates pass unparsed and uncharged — but still through the poll and
// the failpoint, so cancellation, LIMIT and injected faults see every
// candidate. Per-candidate panics (a grammar or filter bug, or an injected
// fault) are isolated into a typed error so one poisoned candidate fails
// the query instead of killing the process — essential when the caller is
// a worker goroutine.
func (e *Engine) processCandidate(es *execEnv, plan *compile.Plan, vp *compile.VarPlan, r region.Region) (obj db.Value, keep bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: phase 2 panic on candidate %v: %v: %w", r, p, qerr.ErrInternal)
		}
	}()
	if err := es.poll(); err != nil {
		return nil, false, err
	}
	if err := faultinject.Hit(faultinject.Phase2); err != nil {
		return nil, false, fmt.Errorf("engine: phase 2: %w", err)
	}
	if !vp.Reads.Empty() {
		if err := es.chargeBytes(r.Len()); err != nil {
			return nil, false, err
		}
		if obj, err = e.parseValue(vp.NT, r, vp.Reads); err != nil {
			return nil, false, err
		}
	}
	return obj, vp.Exact || plan.Filter.EvalOne(obj), nil
}

// countParsed accounts one candidate that went through processCandidate:
// parsed, unless the plan reads nothing of it.
func (st *Stats) countParsed(vp *compile.VarPlan, r region.Region) {
	if !vp.Reads.Empty() {
		st.Parsed++
		st.ParsedBytes += r.Len()
	}
}

// emitter accumulates kept candidates into the result with uniform LIMIT
// clamping: once the row count reaches the limit no further candidate is
// admitted, and a projected candidate straddling the boundary keeps its
// region with its strings clamped to exactly k. Every drain emits through
// it, which is what makes a limited answer a prefix of the full one. A join
// variable's drain emits into a binder instead: no limit, every candidate
// kept with its value, and nothing published — the join decides.
type emitter struct {
	plan  *compile.Plan
	res   *Result
	limit int
	rows  int
	kept  []region.Region
	bind  bool       // a join variable's binder
	objs  []db.Value // a binder's values, one per kept region
}

func newEmitter(q *xsql.Query, plan *compile.Plan, res *Result) *emitter {
	return &emitter{plan: plan, res: res, limit: q.Limit}
}

// full reports that the limit is reached and emission has stopped.
func (em *emitter) full() bool { return em.limit > 0 && em.rows >= em.limit }

// emit admits one kept candidate: a binder records its region and value, a
// whole-object select its region, and a path select also projects from obj,
// the value phase 2 built for it. The caller checks full() first.
func (em *emitter) emit(r region.Region, obj db.Value) {
	em.kept = append(em.kept, r)
	if em.bind {
		em.objs = append(em.objs, obj)
		return
	}
	if !em.res.Projected {
		em.rows++
		return
	}
	strs := db.NavigateStrings(obj, em.plan.Projection.Steps)
	if em.limit > 0 && len(strs) > em.limit-em.rows {
		strs = strs[:em.limit-em.rows]
	}
	em.res.Strings = append(em.res.Strings, strs...)
	em.rows += len(strs)
}

// finish publishes the kept regions into the result.
func (em *emitter) finish() {
	em.res.Regions = region.FromRegions(em.kept)
	em.res.Stats.PeakBytes += region.Bytes * len(em.kept)
}

// streamSingle is the streaming single-variable executor: phase 1 is an
// iterator pipeline over the index (algebra.Stream) and phase 2 pulls
// candidates off it, parsing and filtering while phase 1 is still
// producing. The pipeline stops as soon as the LIMIT is satisfied, a budget
// trips, or the context is done; only a complete successful drain publishes
// the candidate set to the cross-query result cache. A drain that the LIMIT
// stopped publishes nothing and records its key in the cache's doorkeeper
// instead, so the key's next miss runs the set evaluator, which publishes the
// whole set on success, and drains that: a first miss streams, a repeat pays
// one set evaluation, and every later repeat is a cache hit. Budgeted
// queries neither read the cache nor record in it.
func (e *Engine) streamSingle(es *execEnv, q *xsql.Query, plan *compile.Plan, vp *compile.VarPlan, res *Result, phase1 time.Time) error {
	var ast algebra.Stats
	var src region.Iterator
	streamed := false
	// The key is shared by the cache read, the doorkeeper and the publish
	// below. A region budget must meter the actual phase-1 work, so budgeted
	// queries bypass the cross-query cache, exactly like the complete-set
	// plans.
	key := e.resultKey(vp)
	cacheable := key != "" && es.budget == nil
	if cacheable {
		if s, ok := e.results.Get(key); ok {
			res.Stats.ResultCached = true
			res.Stats.ResultCacheHits++
			src = s.Iter()
		} else if e.results.Recorded(key) {
			s, err := e.evalExpr(es, vp.Candidates, res)
			if err != nil {
				return fmt.Errorf("engine: evaluating candidates: %w", err)
			}
			src = s.Iter()
		}
	}
	if src == nil {
		it, err := e.ev.Stream(es.ctx, vp.Candidates, &ast, es.budget)
		if err != nil {
			return fmt.Errorf("engine: evaluating candidates: %w", err)
		}
		src, streamed = it, true
	}
	defer src.Close()
	res.Stats.Phase1Time = time.Since(phase1)

	em := newEmitter(q, plan, res)
	all, complete, err := e.streamPhase2(es, plan, vp, src, res, em)
	em.finish()
	res.Stats.ResultCacheHits += ast.ResultCacheHits
	res.Stats.Candidates = len(all)
	res.Stats.PeakBytes += ast.PeakBytes + region.Bytes*(ast.RegionsTouched+len(all))
	if err != nil || !streamed || key == "" {
		return err
	}
	if complete {
		// The stream was drained in full, so the accumulated candidates
		// are the exact phase-1 answer — safe to publish. A limit-stopped
		// or failed drain never publishes: a partial set is never cached.
		e.results.Put(key, region.FromRegions(all))
	} else if cacheable {
		e.results.Record(key)
	}
	return nil
}

// streamPhase2 drains the candidate iterator through phase 2 into em and
// reports the candidates pulled and whether the stream was consumed to
// exhaustion (false when the LIMIT stopped it). The caller's goroutine is
// the iterator's only consumer, and it processes the first candidate
// itself. It processes the others itself as well — the sequential drain —
// unless the helper budget (package pool) is not zero and the plan parses
// its candidates (one that parses nothing has too little work per
// candidate to hand off); then drainChunks takes the rest. A LIMIT that
// the first candidate meets therefore takes no helper.
func (e *Engine) streamPhase2(es *execEnv, plan *compile.Plan, vp *compile.VarPlan, src region.Iterator, res *Result, em *emitter) (all []region.Region, complete bool, err error) {
	chunked := !vp.Reads.Empty() && pool.Size() > 0
	for !em.full() {
		if chunked && len(all) > 0 {
			return e.drainChunks(es, plan, vp, src, res, em, all)
		}
		r, ok, err := nextCandidate(src)
		if err != nil {
			return all, false, fmt.Errorf("engine: evaluating candidates: %w", err)
		}
		if !ok {
			return all, true, nil
		}
		all = append(all, r)
		obj, keep, err := e.processCandidate(es, plan, vp, r)
		if err != nil {
			return all, false, err
		}
		res.Stats.countParsed(vp, r)
		if keep {
			em.emit(r, obj)
		}
	}
	return all, false, nil
}

// nextCandidate pulls the drain's next candidate. A panic in a phase-1
// operator surfaces here, on the drain's goroutine, and fails this query
// with ErrInternal, so the drain still joins its workers.
func nextCandidate(src region.Iterator) (r region.Region, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: candidate stream panic: %v: %w", p, qerr.ErrInternal)
		}
	}()
	return src.Next()
}

// maxChunk caps the candidates in one chunk. Chunks double from two up to
// it, so a drain that a LIMIT stops early has cut little ahead, and a long
// one pays one hand-off per maxChunk candidates.
const maxChunk = 64

// chunk is a run of consecutive candidates that one goroutine — a helper
// or the drain's caller — takes through processCandidate in document order.
type chunk struct {
	rs      []region.Region // the candidates: a window onto the drain's all
	out     []processed     // one per candidate processed, in order
	err     error           // the failure that stopped the chunk after out
	claimed atomic.Bool     // taken by the goroutine that parses it
	done    chan struct{}   // closed when the chunk is through
}

// isDone reports whether c is through.
func isDone(c *chunk) bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// processed is processCandidate's answer for one candidate.
type processed struct {
	obj  db.Value
	keep bool
}

// drainChunks is the rest of a chunked drain, after streamPhase2 ran the
// first candidate (all) inline. The caller cuts the candidates into chunks
// of 2, 4, … up to maxChunk, charging the byte budget for each as it cuts
// it, keeps at most 2·helpers+2 chunks in flight, offers each to the
// helpers in cut order and takes idle helpers up to the budget; a helper
// parses offered chunks until the drain ends. Whoever claims a chunk first
// parses it. The caller claims the oldest chunk when nobody has, and while
// a helper has it, the newest ones, so the helpers keep the chunks next in
// line and a lone query keeps every core. It emits each finished chunk
// strictly in document order, so the answer, Parsed and the first error in
// document order — a spent budget included — are the sequential drain's;
// only Candidates counts what was cut ahead of a LIMIT, fewer than
// (2·helpers+2)·maxChunk. Every helper it took is through before it
// returns.
func (e *Engine) drainChunks(es *execEnv, plan *compile.Plan, vp *compile.VarPlan, src region.Iterator, res *Result, em *emitter, all []region.Region) (_ []region.Region, complete bool, err error) {
	var (
		helpers = pool.Size()
		work    = make(chan *chunk, 2*helpers+2) // chunks offered to helpers: at most the chunks in flight
		group   pool.Group                       // the helpers taken
		stop    atomic.Bool                      // the drain is over: what is left is skipped
		taken   int                              // helpers taken: each parses chunks until work closes
		fifo    []*chunk                         // cut and not yet emitted, in document order
		size    = 2
		eof     bool
		cutErr  error // what stopped the cutting: the stream's failure or the budget's
	)
	wes := &execEnv{ctx: es.ctx} // the chunks' view: the caller charged what they parse
	run := func(c *chunk) {
		if !c.claimed.CompareAndSwap(false, true) {
			return
		}
		c.out = make([]processed, 0, len(c.rs))
		for _, r := range c.rs {
			if stop.Load() {
				break
			}
			obj, keep, err := e.processCandidate(wes, plan, vp, r)
			if err != nil {
				c.err = err
				break
			}
			c.out = append(c.out, processed{obj: obj, keep: keep})
		}
		close(c.done)
	}
	help := func() {
		for c := range work {
			run(c)
		}
	}
	for !em.full() && err == nil {
		for !eof && cutErr == nil && len(fifo) <= 2*helpers+1 {
			lo := len(all)
			for len(all)-lo < size {
				r, ok, err := nextCandidate(src)
				if err != nil {
					cutErr = fmt.Errorf("engine: evaluating candidates: %w", err)
					break
				}
				if !ok {
					eof = true
					break
				}
				if cutErr = es.chargeBytes(r.Len()); cutErr != nil {
					break
				}
				all = append(all, r)
			}
			if len(all) == lo {
				break
			}
			c := &chunk{rs: all[lo:len(all):len(all)], done: make(chan struct{})}
			fifo = append(fifo, c)
			select {
			case work <- c:
			default: // the helpers are behind; the caller parses it
			}
			if taken < helpers && group.TryGo(help) {
				taken++
			}
			size = min(2*size, maxChunk)
		}
		if len(fifo) == 0 {
			err, complete = cutErr, cutErr == nil
			break
		}
		c := fifo[0]
		fifo = fifo[:copy(fifo, fifo[1:])]
		run(c) // unless a helper has it
		for i := len(fifo) - 1; i >= 0 && !isDone(c); i-- {
			run(fifo[i]) // the newest first: helpers take the oldest
		}
		<-c.done
		for i := 0; i < len(c.out) && !em.full(); i++ {
			res.Stats.countParsed(vp, c.rs[i])
			if c.out[i].keep {
				em.emit(c.rs[i], c.out[i].obj)
			}
		}
		if !em.full() {
			err = c.err
		}
	}
	stop.Store(true)
	close(work)
	group.Wait()
	return all, complete, err
}

// joinFastCandidates implements Section 5.2's join strategy: locate the
// leaf regions of both paths through the index, read only their bytes, and
// hash-join the values per candidate. It requires candidates to be
// non-nested (so every leaf has a unique container); ok=false means the
// caller must fall back to parsing.
func (e *Engine) joinFastCandidates(es *execEnv, jf *compile.JoinFastPlan, candidates region.Set, res *Result) (region.Set, bool, error) {
	if !candidates.Disjoint() {
		return region.Empty, false, nil // nested or overlapping candidates
	}
	cands := candidates.Regions()
	content := e.in.Document().Content()
	groups := func(ch algebra.Expr) (map[int]map[string]bool, error) {
		leaves, err := e.evalExpr(es, ch, res)
		if err != nil {
			return nil, err
		}
		out := make(map[int]map[string]bool)
		for _, leaf := range leaves.Regions() {
			i := sort.Search(len(cands), func(i int) bool { return cands[i].Start > leaf.Start }) - 1
			if i < 0 || !cands[i].Includes(leaf) {
				continue
			}
			if out[i] == nil {
				out[i] = make(map[string]bool)
			}
			out[i][content[leaf.Start:leaf.End]] = true
		}
		return out, nil
	}
	lGroups, err := groups(jf.L.Expr())
	if err != nil {
		return region.Empty, false, err
	}
	rGroups, err := groups(jf.R.Expr())
	if err != nil {
		return region.Empty, false, err
	}
	var matched []region.Region
	for i, ls := range lGroups {
		rs := rGroups[i]
		for v := range ls {
			if rs[v] {
				matched = append(matched, cands[i])
				break
			}
		}
	}
	return region.FromRegions(matched), true, nil
}

// executeMulti runs a multi-variable query: each variable's complete
// candidate set goes through the phase-2 drain unfiltered and unlimited,
// binding every candidate to what the plan reads of it, and a nested-loop
// join over the bindings evaluates the WHERE clause in the database (Section
// 5.2: joins are beyond the indexing engine). The select variable is the
// outermost loop and the first assignment the clause accepts emits its
// candidate, so matches come out in document order, each once, and a LIMIT
// stops the join.
func (e *Engine) executeMulti(es *execEnv, q *xsql.Query, plan *compile.Plan, res *Result) error {
	binds := make([]*emitter, len(plan.Vars))
	sel := 0
	for i := range plan.Vars {
		vp := plan.Vars[i]
		if vp.Var == q.Select.Var {
			sel = i
		}
		cands, err := e.candidateSet(es, &vp, res)
		if err != nil {
			return err
		}
		res.Stats.Candidates += cands.Len()
		vp.Exact = true // the join applies the WHERE clause, not the drain
		binds[i] = &emitter{bind: true}
		src := cands.Iter()
		_, _, err = e.streamPhase2(es, plan, &vp, src, res, binds[i])
		src.Close()
		if err != nil {
			return err
		}
	}
	vals := make([]db.Value, len(plan.Vars))
	var match func(i int) (bool, error)
	match = func(i int) (bool, error) {
		if i == sel {
			i++
		}
		if i == len(plan.Vars) {
			// Poll per assignment: the cross product can dwarf any single
			// binding, so the join itself must be cancelable.
			if err := es.poll(); err != nil {
				return false, err
			}
			return plan.Filter.Eval(vals), nil
		}
		for _, v := range binds[i].objs {
			vals[i] = v
			if ok, err := match(i + 1); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	em := newEmitter(q, plan, res)
	defer em.finish()
	for k, r := range binds[sel].kept {
		if em.full() {
			break
		}
		vals[sel] = binds[sel].objs[k]
		ok, err := match(0)
		if err != nil {
			return err
		}
		if ok {
			em.emit(r, vals[sel])
		}
	}
	return nil
}

// parseValue parses one candidate region and builds the part of its
// database value that reads names (nil: the whole value). The caller has
// already polled cancellation and charged its byte budget.
func (e *Engine) parseValue(nt string, r region.Region, reads *grammar.ReadSet) (db.Value, error) {
	v, err := e.cat.Grammar.ParseValue(e.in.Document(), nt, int(r.Start), int(r.End), reads)
	if err != nil {
		return nil, fmt.Errorf("engine: parsing candidate %v as %s: %w", r, nt, err)
	}
	return v, nil
}
