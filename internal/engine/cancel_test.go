package engine_test

// Cancellation, budget, and cache-safety tests. The -race stress tests
// cancel contexts while parallel phase-2 workers and AddAll builders are
// mid-flight, then prove the engine still serves correctly and no worker
// goroutines leaked.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qof/internal/algebra"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/qerr"
	"qof/internal/qgen"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/text"
	"qof/internal/xsql"
)

// TestExecuteContextPreCanceled: a query under an already-canceled context
// returns context.Canceled and no other error, and the engine then answers
// it. Every generated query of every qgen domain and spec runs so, each on a
// cold engine, and its answer afterwards must be a fresh engine's: a
// pre-canceled context fires every poll point on its first check, so a
// query that answers or fails some other way has a path without one.
func TestExecuteContextPreCanceled(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changAuthorQuery)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Eng.ExecuteContext(ctx, q, engine.Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled execute: %v, want context.Canceled", err)
	}
	// The engine still serves correctly afterwards.
	res, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatalf("execute after cancel: %v", err)
	}
	if res.Stats.Results == 0 {
		t.Fatal("execute after cancel returned no results")
	}

	for _, d := range qgen.Domains(1994) {
		gen := qgen.NewQueryGen(d, 7)
		for si, spec := range d.Specs {
			in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 25; i++ {
				q := gen.Query()
				eng := engine.New(d.Cat, in)
				if _, err := eng.ExecuteContext(ctx, q, engine.Limits{}); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s spec %d: pre-canceled %q: %v, want context.Canceled", d.Name, si, q, err)
				}
				got, gerr := eng.Execute(q)
				want, werr := engine.New(d.Cat, in).Execute(q)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s spec %d: %q after a cancel: %v, a fresh engine says %v", d.Name, si, q, gerr, werr)
				}
				if werr == nil && (!got.Regions.Equal(want.Regions) || !slices.Equal(got.Strings, want.Strings)) {
					t.Fatalf("%s spec %d: %q after a cancel answers %d regions and %d strings, a fresh engine %d and %d",
						d.Name, si, q, got.Regions.Len(), len(got.Strings), want.Regions.Len(), len(want.Strings))
				}
			}
		}
	}
}

func TestExecuteContextExpiredDeadline(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changAuthorQuery)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := f.Eng.ExecuteContext(ctx, q, engine.Limits{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want context.DeadlineExceeded", err)
	}
}

func TestExecuteContextRegionBudget(t *testing.T) {
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changAuthorQuery)
	_, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxRegions: 1})
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("MaxRegions=1: %v, want ErrBudgetExceeded", err)
	}
	res, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxRegions: 1 << 30})
	if err != nil {
		t.Fatalf("generous region budget: %v", err)
	}
	want, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regions.Equal(want.Regions) {
		t.Fatal("budgeted execution diverged from unbudgeted")
	}
}

// TestBudgetIgnoresWarmCache pins the budget/cache interaction: a result
// cache warmed by an unbudgeted run must not let a budgeted rerun dodge
// phase-1 accounting (budgeted queries bypass cache reads entirely).
func TestBudgetIgnoresWarmCache(t *testing.T) {
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changAuthorQuery)
	for i := 0; i < 2; i++ { // warm plan and result caches
		if _, err := f.Eng.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.Eng.Execute(q)
	if err != nil || !res.Stats.ResultCached {
		t.Fatalf("cache not warm (stats=%+v, err=%v)", res.Stats, err)
	}
	_, err = f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxRegions: 1})
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("MaxRegions=1 on warm cache: %v, want ErrBudgetExceeded", err)
	}
	// The unbudgeted path still serves from cache afterwards.
	res, err = f.Eng.Execute(q)
	if err != nil || !res.Stats.ResultCached {
		t.Fatalf("cache lost after budgeted run (stats=%+v, err=%v)", res.Stats, err)
	}
}

// TestNoLimitOrPaysTheSetEvaluatorsRegionBudget: a plan with no LIMIT
// evaluates its candidates as a set, so its region budget is the set
// evaluator's charge, once per operator result. An OR query succeeds under
// exactly the Budget.Used() of EvalContext on its candidates and fails one
// region short. (A stream charged the OR's ∪, which it set-evaluates, twice:
// while evaluating it, and again as its regions flowed out of the leaf tap.)
func TestNoLimitOrPaysTheSetEvaluatorsRegionBudget(t *testing.T) {
	f := testutil.NewBibFixture(t, 200, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Abstract CONTAINS "system" OR r.Keywords CONTAINS "numerical"`)
	want, err := f.Eng.Execute(q)
	if err != nil || want.Stats.Results == 0 {
		t.Fatalf("unbudgeted run: %v, %v", want, err)
	}
	b := algebra.NewBudget(1 << 30)
	if _, err := algebra.NewEvaluator(f.In).EvalContext(context.Background(), want.Plan.Vars[0].Candidates, nil, b); err != nil {
		t.Fatal(err)
	}
	used := b.Used()
	res, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxRegions: used})
	if err != nil || !res.Regions.Equal(want.Regions) {
		t.Errorf("MaxRegions %d, the set evaluator's charge: %v, %v", used, res, err)
	}
	if _, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxRegions: used - 1}); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Errorf("MaxRegions %d, one short of the set evaluator's charge: %v, want ErrBudgetExceeded", used-1, err)
	}
}

func TestExecuteContextByteBudget(t *testing.T) {
	// A filtering query (non-exact plan) must parse candidates, so a
	// one-byte parse budget trips in phase 2.
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{Names: []string{"Reference"}}, nil)
	q := xsql.MustParse(changAuthorQuery)
	_, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxEvalBytes: 1})
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("MaxEvalBytes=1: %v, want ErrBudgetExceeded", err)
	}
	if _, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxEvalBytes: 1 << 30}); err != nil {
		t.Fatalf("generous byte budget: %v", err)
	}
}

// TestKilledExecutionNeverCached is the cache-safety invariant (the
// result cache must not serve answers computed by an evaluation that was
// canceled, timed out, or budget-killed): after a killed execution, the
// next successful run must compute its candidates fresh — Stats.ResultCached
// would be true if the killed run had published anything.
func TestKilledExecutionNeverCached(t *testing.T) {
	q := xsql.MustParse(cacheProbeQuery)
	kills := map[string]func(eng *engine.Engine) error{
		"canceled": func(eng *engine.Engine) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := eng.ExecuteContext(ctx, q, engine.Limits{})
			return err
		},
		"timed-out": func(eng *engine.Engine) error {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
			defer cancel()
			_, err := eng.ExecuteContext(ctx, q, engine.Limits{})
			return err
		},
		"budget-killed": func(eng *engine.Engine) error {
			_, err := eng.ExecuteContext(context.Background(), q, engine.Limits{MaxRegions: 1})
			return err
		},
	}
	for name, kill := range kills {
		f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
		if err := kill(f.Eng); err == nil {
			t.Fatalf("%s: killed execution unexpectedly succeeded", name)
		}
		res, err := f.Eng.Execute(q)
		if err != nil {
			t.Fatalf("%s: execute after kill: %v", name, err)
		}
		if res.Stats.ResultCached || res.Stats.ResultCacheHits != 0 {
			t.Errorf("%s: killed execution polluted the result cache: %d hits", name, res.Stats.ResultCacheHits)
		}
		// And the cache still works: the next repeat is a hit.
		res, err = f.Eng.Execute(q)
		if err != nil {
			t.Fatalf("%s: repeat after kill: %v", name, err)
		}
		if !res.Stats.ResultCached {
			t.Errorf("%s: cache did not recover after a killed execution", name)
		}
	}
}

// waitGoroutines polls until the goroutine count returns to within slack of
// base (workers park asynchronously after Wait), failing after a timeout.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidParallelPhase2 hammers a parallel-phase-2 engine while
// another goroutine cancels each query's context mid-flight. Run under
// -race. Every outcome must be either a complete, correct result or a clean
// context.Canceled — and afterwards the engine must serve correctly with no
// leaked workers.
func TestCancelMidParallelPhase2(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	base := runtime.NumGoroutine()
	// 2 000 candidates, each parsed: the drain admits them all in tens of
	// microseconds, then builds them on the helpers for milliseconds, so the
	// cancels land while the helpers are genuinely mid-flight. (An injected
	// delay would hold the admission, which runs on the caller alone.)
	f := testutil.NewBibFixture(t, 2000, grammar.IndexSpec{Names: []string{"Reference"}}, nil)
	q := xsql.MustParse(changAuthorQuery)
	want, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	var canceledRuns, completedRuns int
	for round := 0; round < 30; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			// Stagger the cancel across rounds so it lands in
			// different execution phases.
			time.Sleep(time.Duration(round%10) * 100 * time.Microsecond)
			cancel()
		}(round)
		res, err := f.Eng.ExecuteContext(ctx, q, engine.Limits{})
		wg.Wait()
		cancel()
		switch {
		case err == nil:
			completedRuns++
			if !res.Regions.Equal(want.Regions) {
				t.Fatalf("round %d: completed run diverged", round)
			}
		case errors.Is(err, context.Canceled):
			canceledRuns++
		default:
			t.Fatalf("round %d: unexpected error: %v", round, err)
		}
	}
	t.Logf("canceled=%d completed=%d", canceledRuns, completedRuns)
	if canceledRuns == 0 {
		t.Error("no run was canceled mid-flight; the storm exercised nothing")
	}
	// The engine is fully usable after the storm.
	res, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatalf("execute after cancel storm: %v", err)
	}
	if !res.Regions.Equal(want.Regions) {
		t.Fatal("post-storm result diverged")
	}
	waitGoroutines(t, base)
}

// TestLimitStopsParallelStream: a LIMIT query streams and drains
// sequentially with helpers pinned, and stops early — and when a cancel
// storm overlaps the early stop, every run still either completes with the
// exact document-order prefix or fails with a clean context.Canceled. No
// goroutines may survive the storm. Run under -race.
func TestLimitStopsParallelStream(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	base := runtime.NumGoroutine()
	f := testutil.NewBibFixture(t, 400, grammar.IndexSpec{Names: []string{"Reference"}}, nil)
	full, err := f.Eng.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatal(err)
	}
	const limit = 3
	if full.Regions.Len() <= limit {
		t.Fatalf("fixture too small: %d results, need > %d", full.Regions.Len(), limit)
	}
	wantPrefix := full.Regions.Regions()[:limit]
	lq := xsql.MustParse(changAuthorQuery).WithLimit(limit)

	if err := faultinject.Configure("engine.phase2=delay:500us"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	var canceledRuns, completedRuns int
	for round := 0; round < 30; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			time.Sleep(time.Duration(round%10) * 100 * time.Microsecond)
			cancel()
		}(round)
		res, err := f.Eng.ExecuteContext(ctx, lq, engine.Limits{})
		wg.Wait()
		cancel()
		switch {
		case err == nil:
			completedRuns++
			got := res.Regions.Regions()
			if len(got) != limit {
				t.Fatalf("round %d: %d regions, want %d", round, len(got), limit)
			}
			for i, r := range got {
				if r != wantPrefix[i] {
					t.Fatalf("round %d: region %d = %v, want prefix %v", round, i, r, wantPrefix)
				}
			}
		case errors.Is(err, context.Canceled):
			canceledRuns++
		default:
			t.Fatalf("round %d: unexpected error: %v", round, err)
		}
	}
	t.Logf("canceled=%d completed=%d", canceledRuns, completedRuns)
	faultinject.Reset()
	// Early-stopped and canceled runs left the engine fully usable.
	res, err := f.Eng.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatalf("execute after storm: %v", err)
	}
	if !res.Regions.Equal(full.Regions) {
		t.Fatal("post-storm result diverged")
	}
	waitGoroutines(t, base)
}

// TestPhase2DepthOverflowIsABudgetError: a candidate region that sends the
// parser into the left-recursive alternative Item → Item "x" fails the query
// with an error in the ErrBudgetExceeded family — it used to be a panic,
// recovered as ErrInternal — and the engine answers the next query.
func TestPhase2DepthOverflowIsABudgetError(t *testing.T) {
	g := grammar.NewGrammar("Doc")
	g.MustAddTerminal("W", `[a-z]+`)
	g.AddProduction("Doc", grammar.Rep("Item", ""))
	g.AddProduction("Item", grammar.Lit("["), grammar.NT("Word"), grammar.Lit("]"))
	g.AddProduction("Item", grammar.NT("Item"), grammar.Lit("x"))
	g.AddProduction("Word", grammar.Lit("'"), grammar.Term("W"))
	cat := compile.NewCatalog(g)
	cat.Bind("Items", "Item")

	// The index is built by hand: the third Item region holds text the
	// first alternative rejects, which a stale or foreign index can do.
	doc := text.NewDocument("lr.txt", "['a] ['b] a!")
	in := index.New(index.NewWordIndex(doc), map[string]region.Set{
		"Item": region.FromRegions([]region.Region{{Start: 0, End: 4}, {Start: 5, End: 9}, {Start: 10, End: 12}}),
	}, nil)
	eng := engine.New(cat, in)
	for _, par := range []int{1, 4} {
		t.Cleanup(pool.SetHelpers(par - 1))
		_, err := eng.Execute(xsql.MustParse(`SELECT i FROM Items i WHERE i.Word = "a"`))
		var derr *grammar.DepthError
		if !errors.Is(err, qerr.ErrBudgetExceeded) || errors.Is(err, qerr.ErrInternal) || !errors.As(err, &derr) {
			t.Fatalf("parallelism %d: error %v, want a DepthError in the ErrBudgetExceeded family", par, err)
		}
		if derr.Sym != "Item" || derr.Offset != 10 {
			t.Errorf("parallelism %d: %+v, want symbol Item at offset 10", par, derr)
		}
		res, err := eng.Execute(xsql.MustParse(`SELECT i FROM Items i WHERE i.Word = "b"`))
		if err != nil || res.Stats.Results != 1 || res.Stats.Parsed == 0 {
			t.Fatalf("parallelism %d: after the overflow: %v, %+v", par, err, res)
		}
	}
}

// TestRepeatedStarFilters: a filter whose path repeats *X answers as the
// single-*X filter does, well inside its deadline. Navigation used to try
// every split of the descents among the stars, O(steps^depth) a candidate
// with no poll point, so .*X repeated 1000 times ran past a 20 s deadline.
func TestRepeatedStarFilters(t *testing.T) {
	cat, in := testutil.NewBibInstance(t, 50, grammar.IndexSpec{})
	eng := engine.New(cat, in)
	run := func(where string) *engine.Result {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		start := time.Now()
		res, err := eng.ExecuteContext(ctx, xsql.MustParse(`SELECT r FROM References r WHERE `+where), engine.Limits{})
		if err != nil {
			t.Fatalf("%d-byte condition: %v after %v", len(where), err, time.Since(start))
		}
		return res
	}
	stars := strings.Repeat(".*X", 1000)
	for _, c := range []struct{ where, single string }{
		{`r` + stars + ` = "Chang"`, `r.*X = "Chang"`},
		{`r` + stars + ` = r.Key`, `r.*X = r.Key`},
	} {
		want := run(c.single)
		if want.Regions.Len() == 0 {
			t.Fatalf("%s answers nothing: the comparison is vacuous", c.single)
		}
		if got := run(c.where); !got.Regions.Equal(want.Regions) {
			t.Errorf("with .*X x1000 it answers %d references, %s answers %d", got.Regions.Len(), c.single, want.Regions.Len())
		}
	}
	if got := run(`r` + strings.Repeat(".*X.?Y", 300) + ` = "Chang"`); got.Regions.Len() != 0 {
		t.Errorf("(.*X.?Y) x300 needs 300 levels of nesting, yet answers %d references", got.Regions.Len())
	}
}
