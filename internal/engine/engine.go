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
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"qof/internal/algebra"
	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/lru"
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
	cat    *compile.Catalog
	in     *index.Instance
	ev     *algebra.Evaluator
	choice *compile.Choice // the instance's indexing choice, resolved once

	// results is the cross-query result cache, shared with ev: evaluated
	// region sets by expression text. It skips phase 1 for repeated
	// subexpressions, including ones different queries share. It belongs to
	// one instance, which never changes, so an entry never goes stale: an
	// edit makes a new instance, and the new instance gets a new engine.
	// Region sets are immutable, so a kept set is shared by any number of
	// concurrent executions.
	results *lru.Cache[string, region.Set]
	// door is the doorkeeper, the admission filter of TinyLFU (Einziger,
	// Friedman & Manes): the keys whose candidate stream a LIMIT stopped,
	// so published nothing. A recorded key's next miss builds the whole
	// set, which publishes, so a query repeated under a LIMIT streams once
	// and is a cache hit from its third run on, while a one-off LIMIT query
	// never pays for more than its stream.
	door *lru.Cache[string, struct{}]
}

// resultCacheCap bounds an engine's result cache and its doorkeeper. Entries
// are whole region sets, so the cap is larger than the catalog's prepared
// texts (more distinct subexpressions than query texts) but still small
// enough that a burst of one-off queries cannot pin unbounded memory.
const resultCacheCap = 256

// New creates an engine over the catalog and instance, with the
// cross-query result cache. It resolves the instance's indexing choice
// once; every plan the engine runs is the catalog's plan for that choice,
// run as it is.
func New(cat *compile.Catalog, in *index.Instance) *Engine {
	e := &Engine{
		cat:     cat,
		in:      in,
		ev:      algebra.NewEvaluator(in),
		choice:  cat.Choice(in),
		results: lru.New[string, region.Set](resultCacheCap, faultinject.ResultCacheGet, faultinject.ResultCachePut),
		door:    lru.New[string, struct{}](resultCacheCap, "", ""),
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
// budget; a helper of a parallel drain only polls.
type execEnv struct {
	ctx    context.Context
	lim    Limits
	budget *algebra.Budget // phase-1 region budget; nil = unlimited

	bytesUsed int // phase-2 parsed bytes so far
}

// poll returns the context error once the execution's context is done. It
// receives from Done without blocking and reads Err only once Done is
// closed, as the context contract allows: a cancelable context's Err takes
// its mutex, and the drain polls once per candidate.
func (es *execEnv) poll() error {
	select {
	case <-es.ctx.Done():
		return es.ctx.Err()
	default:
		return nil
	}
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
	plan, cached, err := p.Plan(e.choice)
	if err != nil {
		return nil, err
	}
	q := plan.Query
	res := &Result{Plan: plan, Projected: len(q.Select.Segs) > 0, eng: e}
	res.Stats.PlanCached = cached
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

// executeSingle runs the one-range-variable fast path. The query picks the
// drain, and nothing a caller can set does. A LIMIT query whose candidates
// come off the index streams them (streamSingle): phase 1 is an iterator
// pipeline (algebra.Stream) that phase 2 pulls from one candidate at a time
// on the caller's goroutine, so the LIMIT stops both phases. Every other plan
// has its complete candidate set in memory before phase 2 starts
// (candidateSet: the result cache, the set evaluator or a full scan), and
// drainSet parses it, in parallel when there is no LIMIT. An index-only
// projection and a Section 5.2 fast join need the complete set before they
// can answer, LIMIT or not.
func (e *Engine) executeSingle(es *execEnv, q *xsql.Query, plan *compile.Plan, res *Result) error {
	vp := &plan.Vars[0]
	res.Stats.Exact = vp.Exact
	if q.Limit > 0 && vp.Candidates != nil && plan.JoinFast == nil && !plan.IndexOnly() {
		return e.streamSingle(es, q, plan, vp, res)
	}
	candidates, err := e.candidateSet(es, vp, res)
	if err != nil {
		return err
	}
	res.Stats.Candidates = candidates.Len()

	// Index-only projection: exact candidates plus an exact projection
	// chain answer the query without touching the file.
	if plan.IndexOnly() {
		projected, err := e.evalExpr(es, plan.Projection.Chain.Expr(), res)
		if err != nil {
			return fmt.Errorf("engine: evaluating projection: %w", err)
		}
		within := projected.Included(candidates)
		content := e.in.Document().Content()
		n := within.Len()
		if q.Limit > 0 {
			n = min(n, q.Limit)
		}
		res.Strings = slices.Grow(res.Strings, n)
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
	em := newEmitter(q, plan, res)
	defer em.finish()
	return e.drainSet(es, plan, vp, candidates, res, em)
}

// resultKey is the cross-query result cache's key for vp's candidates, or
// "" when the cache is off or the candidates cost too little to keep.
func (e *Engine) resultKey(vp *compile.VarPlan) string {
	if e.results == nil {
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

// admit lets candidate r into phase 2: the poll, the engine.phase2
// failpoint and, when the plan parses r, the byte budget — every check that
// can refuse a candidate before it is parsed. A plan that reads nothing of
// its candidates (an exact whole-object select) parses nothing and is
// charged nothing, but its candidates still pass the poll and the
// failpoint, so cancellation, LIMIT and injected faults see every
// candidate. The poll is a non-blocking receive on the context's Done, so a
// candidate of a cached answer costs no lock while the context is live.
func (e *Engine) admit(es *execEnv, vp *compile.VarPlan, r region.Region) (err error) {
	defer recoverCandidate(r, &err)
	if err := es.poll(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.Phase2); err != nil {
		return fmt.Errorf("engine: phase 2: %w", err)
	}
	if vp.Reads.Empty() {
		return nil
	}
	return es.chargeBytes(r.Len())
}

// build parses an admitted candidate with the plan's read set, so obj holds
// what the filter and the projection navigate and nothing else, and
// filters it. A plan that reads nothing of its candidates has nothing to
// decide and nothing to build.
func (e *Engine) build(plan *compile.Plan, vp *compile.VarPlan, r region.Region) (obj db.Value, keep bool, err error) {
	defer recoverCandidate(r, &err)
	if !vp.Reads.Empty() {
		if obj, err = e.parseValue(vp.NT, r, vp.Reads); err != nil {
			return nil, false, err
		}
	}
	return obj, vp.Exact || plan.Filter.EvalOne(obj), nil
}

// recoverCandidate, deferred, turns a panic on candidate r (a grammar or
// filter bug, or an injected fault) into *err, a typed error, so one
// poisoned candidate fails the query instead of killing the process —
// essential when the candidate is on a helper.
func recoverCandidate(r region.Region, err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("engine: phase 2 panic on candidate %v: %v: %w", r, p, qerr.ErrInternal)
	}
}

// countParsed accounts one candidate that phase 2 admitted and built:
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
// kept with its value, and nothing published — the join decides. Kept
// regions arrive in document order, so finish makes them the result's set
// without a copy; an exact drain over a set in memory sizes them once
// (reserve), since every candidate it pulls is kept.
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

// reserve sizes the kept regions, and a binder's values, for n candidates
// that all pass, or for the limit when that is fewer (a projected candidate
// may add no row, so its kept regions can outgrow the limit by append).
func (em *emitter) reserve(n int) {
	if em.limit > 0 {
		n = min(n, em.limit)
	}
	em.kept = make([]region.Region, 0, n)
	if em.bind {
		em.objs = make([]db.Value, 0, n)
	}
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

// finish publishes the kept regions into the result, which takes them over:
// they are in document order already.
func (em *emitter) finish() {
	if len(em.kept) > 0 {
		em.res.Regions = region.FromOrdered(em.kept)
	}
	em.res.Stats.PeakBytes += region.Bytes * len(em.kept)
}

// streamSingle is the streaming single-variable executor of a LIMIT query:
// phase 1 is an iterator pipeline over the index (algebra.Stream) and phase
// 2 pulls candidates off it, parsing and filtering while phase 1 is still
// producing. The pipeline stops as soon as the LIMIT is satisfied, a budget
// trips, or the context is done; only a complete successful drain publishes
// the candidate set to the cross-query result cache. A drain that the LIMIT
// stopped publishes nothing and records its key in the cache's doorkeeper
// instead, so the key's next miss runs the set evaluator, which publishes the
// whole set on success, and drains that: a first miss streams, a repeat pays
// one set evaluation, and every later repeat is a cache hit. Budgeted
// queries neither read the cache nor record in it.
func (e *Engine) streamSingle(es *execEnv, q *xsql.Query, plan *compile.Plan, vp *compile.VarPlan, res *Result) error {
	var ast algebra.Stats
	var src *drainSource
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
			src = inMemory(s)
		} else if _, ok := e.door.Get(key); ok {
			s, err := e.evalExpr(es, vp.Candidates, res)
			if err != nil {
				return fmt.Errorf("engine: evaluating candidates: %w", err)
			}
			src = inMemory(s)
		}
	}
	if src == nil {
		it, err := e.ev.Stream(es.ctx, vp.Candidates, &ast, es.budget)
		if err != nil {
			return fmt.Errorf("engine: evaluating candidates: %w", err)
		}
		src = &drainSource{it: it}
		defer it.Close()
	}

	em := newEmitter(q, plan, res)
	complete, err := e.streamPhase2(es, plan, vp, src, res, em)
	em.finish()
	res.Stats.ResultCacheHits += ast.ResultCacheHits
	res.Stats.Candidates = len(src.pulled)
	res.Stats.PeakBytes += ast.PeakBytes + region.Bytes*(ast.RegionsTouched+len(src.pulled))
	if err != nil || src.it == nil || key == "" {
		return err
	}
	if complete {
		// The stream was drained in full, so the candidates it pulled are
		// the exact phase-1 answer — safe to publish. A limit-stopped or
		// failed drain never publishes: a partial set is never cached.
		e.results.Add(key, region.FromRegions(src.pulled))
	} else if cacheable {
		e.door.Add(key, struct{}{})
	}
	return nil
}

// drainSource is a drain's candidates and what the drain has pulled of
// them, in document order. A set already in memory (a result-cache hit, the
// doorkeeper's set evaluation, a complete-set plan's candidates) is read in
// place: what the drain pulled is the set's prefix, counted, not copied. A
// stream is copied as it is pulled, since a complete drain publishes it.
type drainSource struct {
	it     region.Iterator // the stream; nil for a set in memory
	set    []region.Region // the set in memory
	pulled []region.Region // the candidates pulled so far
}

// inMemory is the drain source over s, read in place.
func inMemory(s region.Set) *drainSource { return &drainSource{set: s.Regions()} }

// next pulls the next candidate.
func (d *drainSource) next() (region.Region, bool, error) {
	if d.it == nil {
		n := len(d.pulled)
		if n == len(d.set) {
			return region.Region{}, false, nil
		}
		d.pulled = d.set[:n+1]
		return d.set[n], true, nil
	}
	r, ok, err := nextCandidate(d.it)
	if ok {
		d.pulled = append(d.pulled, r)
	}
	return r, ok, err
}

// streamPhase2 is the sequential drain: it pulls src's candidates one at a
// time on the caller's goroutine and takes each through phase 2 into em, and
// reports whether src was consumed to exhaustion (false when the LIMIT
// stopped it); src.pulled holds the candidates it pulled. It drains every
// LIMIT query, streamed or in memory, so a LIMIT pulls exactly the
// candidates that fill the answer, and every drain that drainSet does not
// run in parallel. An exact drain over a set in memory keeps every
// candidate it pulls, so it sizes em's kept regions once, up front.
func (e *Engine) streamPhase2(es *execEnv, plan *compile.Plan, vp *compile.VarPlan, src *drainSource, res *Result, em *emitter) (complete bool, err error) {
	if src.it == nil && vp.Exact {
		em.reserve(len(src.set))
	}
	for !em.full() {
		r, ok, err := src.next()
		if err != nil {
			return false, fmt.Errorf("engine: evaluating candidates: %w", err)
		}
		if !ok {
			return true, nil
		}
		if err := e.admit(es, vp, r); err != nil {
			return false, err
		}
		obj, keep, err := e.build(plan, vp, r)
		if err != nil {
			return false, err
		}
		res.Stats.countParsed(vp, r)
		if keep {
			em.emit(r, obj)
		}
	}
	return false, nil
}

// nextCandidate pulls the drain's next candidate. A panic in a phase-1
// operator surfaces here, on the drain's goroutine, and fails this query
// with ErrInternal.
func nextCandidate(src region.Iterator) (r region.Region, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: candidate stream panic: %v: %w", p, qerr.ErrInternal)
		}
	}()
	return src.Next()
}

// yieldEvery is how many candidates a parallel drain builds between yields.
const yieldEvery = 64

// processed is build's answer for one candidate.
type processed struct {
	obj  db.Value
	keep bool
}

// drainSet drains the candidate set s, in memory, through phase 2 into em.
// A drain with no LIMIT, over a plan that parses its candidates, with a
// helper budget (package pool) that is not zero, runs in parallel: it admits
// the candidates in document order first, up to the first one refused, so
// the failpoint and the byte budget see them as the sequential drain does;
// then it builds the admitted ones through one pool.Each, each after a
// poll, and emits them in document order up to the first failure. The
// answer, Parsed and the error are the sequential drain's, except where a
// cancel lands. A build that fails stops the builds of the candidates after
// it. Every other drain is streamPhase2's.
func (e *Engine) drainSet(es *execEnv, plan *compile.Plan, vp *compile.VarPlan, s region.Set, res *Result, em *emitter) error {
	if em.limit > 0 || vp.Reads.Empty() || pool.Size() == 0 {
		_, err := e.streamPhase2(es, plan, vp, inMemory(s), res, em)
		return err
	}
	cands := s.Regions()
	if vp.Exact {
		em.reserve(len(cands))
	}
	n, refused := len(cands), error(nil)
	for i, r := range cands {
		if refused = e.admit(es, vp, r); refused != nil {
			n = i
			break
		}
	}
	out := make([]processed, n)
	wes := &execEnv{ctx: es.ctx} // the builds' view; capturing es would heap-allocate it every query
	var failed atomic.Int64      // the first candidate known to fail
	failed.Store(int64(n))
	errs := pool.Each(n, func(i int) error {
		if int64(i) > failed.Load() {
			return nil // never emitted: the drain stops at an earlier failure
		}
		if i%yieldEvery == yieldEvery-1 {
			// The caller and every helper build without blocking, so no P
			// may be free to run an expired deadline's timer, which closes
			// Done: yield now and then to let it run.
			runtime.Gosched()
		}
		err := wes.poll()
		if err == nil {
			out[i].obj, out[i].keep, err = e.build(plan, vp, cands[i])
		}
		if err != nil { // lower failed to i: the builds past it are skipped
			for f := failed.Load(); int64(i) < f && !failed.CompareAndSwap(f, int64(i)); f = failed.Load() {
			}
		}
		return err
	})
	for i, r := range cands[:n] {
		if errs[i] != nil {
			return errs[i]
		}
		res.Stats.countParsed(vp, r)
		if out[i].keep {
			em.emit(r, out[i].obj)
		}
	}
	return refused
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
		if err := e.drainSet(es, plan, &vp, cands, res, binds[i]); err != nil {
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
