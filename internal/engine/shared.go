package engine

// Shared execution: when enabled, an engine batches its in-flight queries
// and eliminates redundant work across them through three mechanisms.
//
//  1. Batched multi-pattern scans: the word literals of every query in a
//     batch are compiled into one Aho-Corasick automaton (internal/mpm)
//     whose single pass over the document answers all of their Word-leaf
//     postings lookups. The batching window is work-conserving: a query
//     arriving at an idle engine runs immediately and never waits.
//  2. Cross-query CSE: cache-worthy subexpressions join a singleflight
//     in-flight table (algebra.Inflight) keyed on the epoch-prefixed
//     canonical expression, so identical subexpressions of concurrent
//     queries evaluate once. The streaming executor additionally shares
//     whole candidate sets at the engine level.
//  3. Phase-2 parse dedup: a candidate region requested by several
//     concurrent queries is parsed once per epoch per busy period; the
//     parse table drains when the engine goes idle.
//
// None of the mechanisms changes any query's results or its result-facing
// statistics (Candidates, Parsed, ParsedBytes, Results): waiters receive
// complete sets, every query still charges its own budgets, and limited
// queries bypass the candidate-set sharing entirely. The differential
// harness proves shared and unshared execution byte-identical.

import (
	"context"
	"sync"
	"time"

	"qof/internal/algebra"
	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/mpm"
	"qof/internal/region"
)

// batchWindow is how long a batch leader waits for more queries to join
// before scanning: long enough to collect a stampede's worth of word atoms,
// far below any query's execution time. Only queries that arrive at an
// already-busy engine ever wait it.
const batchWindow = 200 * time.Microsecond

// parseTableCap bounds the retained parse table; crossing it drops the
// table rather than evicting, keeping the hot path lock-cheap.
const parseTableCap = 8192

// sharedState is the per-engine shared-execution coordinator.
type sharedState struct {
	eng    *Engine
	cse    *algebra.Inflight
	parses *parseTable
	window time.Duration

	mu       sync.Mutex
	inflight int         // guarded by mu
	cur      *batchGroup // guarded by mu
}

// batchGroup is one forming batch. words and members are written under the
// owning sharedState's mutex while the group is current; scan is written
// only by the leader before ready closes and read by members only after.
type batchGroup struct {
	ready   chan struct{}
	words   map[string]bool
	members int
	scan    *mpm.Result
}

func newSharedState(e *Engine) *sharedState {
	return &sharedState{
		eng:    e,
		cse:    algebra.NewInflight(),
		parses: newParseTable(),
		window: batchWindow,
	}
}

// EnableSharedExecution turns on cross-query work sharing for this engine.
// It is configuration, like Parallelism: call it before the engine starts
// serving.
func (e *Engine) EnableSharedExecution() {
	e.shared = newSharedState(e)
	e.ev.Shared = e.shared.cse
}

// SharedExecution reports whether shared execution is enabled.
func (e *Engine) SharedExecution() bool { return e.shared != nil }

// enter registers one query execution with the shared-execution layer and
// returns the batch scan result to evaluate against (nil when the query
// runs unbatched) plus the release to defer. A query entering an idle
// engine proceeds immediately; a query entering a busy engine joins the
// forming batch, and the first joiner leads it: it waits the batching
// window, compiles every member's word atoms into one automaton, scans, and
// releases the group.
func (sh *sharedState) enter(ctx context.Context, plan *compile.Plan) (*mpm.Result, func()) {
	g, leader := sh.join(plan)
	if g == nil {
		// Work-conserving: a lone query never waits and never scans —
		// probing the index directly is strictly cheaper for one query.
		return nil, sh.release
	}
	if leader {
		// The caller has not registered release yet, so a panic out of the
		// scan (an injected fault) must give the slot back on the way up or
		// the engine would count a phantom in-flight query forever.
		led := false
		defer func() {
			if !led {
				sh.release()
			}
		}()
		sh.lead(ctx, g)
		led = true
		return g.scan, sh.release
	}
	select {
	case <-g.ready:
		return g.scan, sh.release
	case <-ctx.Done():
		// A canceled member leaves without waiting for the scan; its own
		// execution will observe ctx at the next poll point.
		return nil, sh.release
	}
}

// join registers one query execution and adds its word atoms to the
// forming batch. It returns nil when the engine was idle (the query runs
// unbatched); otherwise it returns the group and whether the caller leads
// it (the first joiner of a new group does).
func (sh *sharedState) join(plan *compile.Plan) (*batchGroup, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.inflight++
	if sh.inflight == 1 {
		return nil, false
	}
	g := sh.cur
	leader := g == nil
	if leader {
		g = &batchGroup{ready: make(chan struct{}), words: make(map[string]bool)}
		sh.cur = g
	}
	g.members++
	planWords(plan, g.words)
	return g, leader
}

// lead runs the leader side of one batch: wait the window, snapshot the
// group (detaching it so later arrivals form a new batch), scan, publish,
// release. The group is always released — also when the scan panics — so
// members can never hang on it.
func (sh *sharedState) lead(ctx context.Context, g *batchGroup) {
	released := false
	defer func() {
		if !released {
			sh.detach(g)
			close(g.ready)
		}
	}()
	t := time.NewTimer(sh.window)
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
	}
	sh.mu.Lock()
	if sh.cur == g {
		sh.cur = nil
	}
	members := g.members
	words := make([]string, 0, len(g.words))
	for w := range g.words {
		words = append(words, w)
	}
	sh.mu.Unlock()
	if members >= 2 && ctx.Err() == nil {
		if a := mpm.Compile(words); a != nil {
			r, err := a.Scan(sh.eng.in.Document().Content())
			if err == nil {
				// An injected scan fault leaves r nil and the whole batch
				// degrades to per-query index probes.
				g.scan = r
			}
		}
	}
	released = true
	close(g.ready)
}

// detach removes g as the forming batch (panic-unwind path of lead).
func (sh *sharedState) detach(g *batchGroup) {
	sh.mu.Lock()
	if sh.cur == g {
		sh.cur = nil
	}
	sh.mu.Unlock()
}

// release retires one query execution; the last one out drops the retained
// parse table, ending the busy period the dedup entries were scoped to.
func (sh *sharedState) release() {
	sh.mu.Lock()
	sh.inflight--
	idle := sh.inflight == 0
	sh.mu.Unlock()
	if idle {
		sh.parses.drop()
	}
}

// planWords collects the σ_w word literals of every candidate, projection
// and fast-join expression in the plan — the atoms the batch scan answers.
func planWords(plan *compile.Plan, into map[string]bool) {
	collect := func(x algebra.Expr) {
		if x == nil {
			return
		}
		algebra.Walk(x, func(e algebra.Expr) {
			switch n := e.(type) {
			case algebra.Word:
				if mpm.Scannable(n.W) {
					into[n.W] = true
				}
			case algebra.Select:
				// σ_contains probes the same postings a Word leaf does; the
				// other select modes filter region content, not postings.
				if n.Mode == algebra.SelContains && mpm.Scannable(n.W) {
					into[n.W] = true
				}
			}
		})
	}
	for i := range plan.Vars {
		collect(plan.Vars[i].Candidates)
	}
	if plan.Projection.Chain != nil {
		collect(plan.Projection.Chain.Expr())
	}
	if plan.JoinFast != nil {
		collect(plan.JoinFast.L.Expr())
		collect(plan.JoinFast.R.Expr())
	}
}

// parseKey identifies one phase-2 parse: epoch-prefixed like the result
// cache, so index mutations orphan every entry. The value of a parse holds
// only what its read set names, so the key carries the set's canonical
// rendering: queries that read the same attributes share, others do not.
type parseKey struct {
	epoch      uint64
	nt         string
	reads      string
	start, end int
}

// parseFlight is one in-flight or retained parse. val and err are written
// exactly once, before done closes; readers wait on done first.
type parseFlight struct {
	done    chan struct{}
	val     db.Value
	err     error
	aborted bool
}

// parseTable is the singleflight-plus-retention table behind phase-2 parse
// dedup: the first query to need a (nonterminal, region) parse performs it,
// concurrent and later queries of the same busy period share the value.
type parseTable struct {
	mu sync.Mutex
	m  map[parseKey]*parseFlight // guarded by mu
}

func newParseTable() *parseTable {
	return &parseTable{m: make(map[parseKey]*parseFlight)}
}

// join returns the flight for key and whether the caller leads it. The
// table is dropped rather than evicted when it outgrows parseTableCap.
func (pt *parseTable) join(key parseKey) (*parseFlight, bool) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if fl, ok := pt.m[key]; ok {
		return fl, false
	}
	if len(pt.m) >= parseTableCap {
		pt.m = make(map[parseKey]*parseFlight)
	}
	fl := &parseFlight{done: make(chan struct{})}
	pt.m[key] = fl
	return fl, true
}

// complete publishes the leader's parse. The entry stays in the table —
// that retention is what dedups later, non-overlapping queries of the same
// busy period; parse results (including errors) are deterministic per key.
func (pt *parseTable) complete(fl *parseFlight, val db.Value, err error) {
	fl.val, fl.err = val, err
	close(fl.done)
}

// abort completes the flight as failed-by-leader and removes it so later
// queries parse fresh; waiters fall back to their own parse.
func (pt *parseTable) abort(key parseKey, fl *parseFlight) {
	pt.mu.Lock()
	if pt.m[key] == fl {
		delete(pt.m, key)
	}
	pt.mu.Unlock()
	fl.aborted = true
	close(fl.done)
}

// wait blocks for the flight or the caller's context. ok is false when the
// caller must parse for itself (leader aborted or context died, in which
// case err carries the context error).
func (fl *parseFlight) wait(ctx context.Context) (db.Value, error, bool) {
	if ctx.Done() == nil {
		<-fl.done
	} else {
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	if fl.aborted {
		return nil, nil, false
	}
	return fl.val, fl.err, true
}

// drop clears the retained table at the end of a busy period.
func (pt *parseTable) drop() {
	pt.mu.Lock()
	pt.m = make(map[parseKey]*parseFlight)
	pt.mu.Unlock()
}

// parse is the shared phase-2 parse path: singleflight plus busy-period
// retention. Every caller has already polled its context and charged its
// own byte budget, so dedup never changes budget or cancellation behavior.
func (sh *sharedState) parse(es *execEnv, vp *compile.VarPlan, r region.Region) (db.Value, error) {
	nt, reads := vp.NT, vp.Reads
	key := parseKey{epoch: sh.eng.in.Epoch(), nt: nt, reads: reads.String(), start: r.Start, end: r.End}
	fl, leader := sh.parses.join(key)
	if leader {
		completed := false
		defer func() {
			if !completed {
				sh.parses.abort(key, fl)
			}
		}()
		val, err := sh.eng.parseValueRaw(nt, r, reads)
		completed = true
		sh.parses.complete(fl, val, err)
		return val, err
	}
	val, err, ok := fl.wait(es.ctx)
	if !ok {
		if err != nil {
			return nil, err
		}
		// Leader aborted (panic unwind): parse solo rather than re-joining,
		// parses are bounded and deterministic.
		return sh.eng.parseValueRaw(nt, r, reads)
	}
	es.parseDedups.Add(1)
	return val, err
}
