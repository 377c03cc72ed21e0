package qof_test

// End-to-end robustness acceptance tests: deadline behavior on the X2
// stress corpus, facade-level resource budgets, per-file timeouts with
// partial results, and attributed AddAll failures. The fault matrix lives
// in faultmatrix_test.go; engine-internal cancellation tests in
// internal/engine/cancel_test.go.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"qof"
	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/xsql"
)

// TestDeadlineOnStressCorpus is the headline acceptance criterion: on the
// X2 stress corpus (the 20k-reference bibliography the concurrency
// experiment sweeps to), a query under a 1ms deadline comes back with
// context.DeadlineExceeded well inside 50ms — cancellation takes effect
// mid-evaluation, not after the query would have finished anyway — and the
// engine keeps serving correct answers afterward.
func TestDeadlineOnStressCorpus(t *testing.T) {
	setup := newBibtex(t, 20000, grammar.IndexSpec{}, 0)
	eng := setup.eng
	author := xsql.MustParse(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)

	// One query per way the plan's shape sends it, each far too big for
	// 1ms. The complete set is a Section 5.2 fast-join plan: phase 1 is a
	// complete set from the set evaluator, which polls inside its kernels,
	// and phase 2 polls per candidate. The Title projection streams: the
	// iterator pipeline polls inside Next while phase 2 parses thousands of
	// candidates. The two-variable join parses 20k candidates per variable
	// through the same drain before its nested loop, which polls per
	// assignment. The deadline must interrupt all three mid-flight.
	for _, c := range []struct {
		name string
		q    *xsql.Query
		want int // ground-truth results; -1: whatever an unhurried run returns
	}{
		{"complete set", xsql.MustParse(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`), setup.truth.SelfEditedByAuth},
		{"streaming", xsql.MustParse(`SELECT r.Title FROM References r WHERE r.Abstract CONTAINS "system"`), -1},
		// Every reference has a year, so each matches at least itself.
		{"join", xsql.MustParse(`SELECT r FROM References r, References s WHERE r.Year = s.Year`), setup.truth.NumRefs},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want < 0 {
				res, err := eng.Execute(c.q)
				if err != nil || res.Stats.Parsed < 1000 {
					t.Fatalf("unhurried run: %v, %v; want thousands of parsed candidates", res, err)
				}
				want = res.Stats.Results
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := eng.ExecuteContext(ctx, c.q, engine.Limits{})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("1ms deadline: err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > deadlineLatencyBound {
				t.Errorf("deadline honored after %v, want < %v", elapsed, deadlineLatencyBound)
			}

			// The killed run poisoned nothing: the same engine answers both
			// the interrupted query and an unrelated one with ground-truth
			// counts.
			res, err := eng.Execute(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Results != want {
				t.Errorf("after the deadline: %d results, want %d", res.Stats.Results, want)
			}
			res, err = eng.Execute(author)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Results != setup.truth.TargetAsAuthor {
				t.Errorf("author query after deadline: %d results, want %d", res.Stats.Results, setup.truth.TargetAsAuthor)
			}
		})
	}

	// A ⊃d is the one operator that reads the universe of all indexed
	// regions (530k of them here), and nothing above has built it: its first
	// use builds it inside the query, under the query's deadline. The killed
	// build stored nothing, so the next run builds it again and answers what
	// the layered program — which reads no universe — does.
	t.Run("cold universe", func(t *testing.T) {
		e := algebra.MustParse(`Name >d Last_Name`)
		ev := algebra.NewEvaluator(setup.in)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := ev.EvalContext(ctx, e, nil, nil)
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("1ms deadline: err = %v, want context.DeadlineExceeded", err)
		}
		if elapsed > deadlineLatencyBound {
			t.Errorf("deadline honored after %v, want < %v", elapsed, deadlineLatencyBound)
		}
		got, err := ev.EvalContext(context.Background(), e, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		layered := algebra.NewEvaluator(setup.in)
		layered.UseLayeredDirect = true
		want, err := layered.Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.IsEmpty() {
			t.Errorf("after the deadline: %d regions, layered ⊃d %d", got.Len(), want.Len())
		}
	})
}

func TestFacadeQueryBudgets(t *testing.T) {
	// matrixQuery and the Title projection stream their candidates.
	t.Run("streaming", func(t *testing.T) {
		f, err := qof.BibTeX().Index("b.bib", bibtex.SampleEntry)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.QueryContext(t.Context(), matrixQuery, qof.WithMaxRegions(1)); !errors.Is(err, qof.ErrBudgetExceeded) {
			t.Errorf("WithMaxRegions(1): err = %v, want ErrBudgetExceeded", err)
		}
		// The byte budget charges what phase 2 parses. matrixQuery is an
		// exact whole-object select — spans, nothing parsed — so the
		// budget is tried on a projection the index cannot answer (a
		// Title region is quoted, not the value verbatim).
		const titleQuery = `SELECT r.Title FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`
		if _, err := f.QueryContext(t.Context(), titleQuery, qof.WithMaxEvalBytes(1)); !errors.Is(err, qof.ErrBudgetExceeded) {
			t.Errorf("WithMaxEvalBytes(1): err = %v, want ErrBudgetExceeded", err)
		}
		if res, err := f.QueryContext(t.Context(), matrixQuery, qof.WithMaxEvalBytes(1)); err != nil || res.Stats.Parsed != 0 {
			t.Errorf("WithMaxEvalBytes(1) on a query that parses nothing: res = %v, err = %v", res, err)
		}
		// Generous budgets do not interfere, and the budget-killed runs
		// were never cached as wrong answers.
		for _, src := range []string{matrixQuery, titleQuery} {
			res, err := f.QueryContext(t.Context(), src,
				qof.WithMaxRegions(1_000_000), qof.WithMaxEvalBytes(1<<30))
			if err != nil || res.Len() != 1 {
				t.Fatalf("generous budgets on %s: res = %v, err = %v", src, res, err)
			}
		}
	})
	// An index-only projection computes complete sets on the set evaluator,
	// which charges the region budget per operator result; a full scan
	// charges the byte budget the whole document before any candidate.
	t.Run("complete set", func(t *testing.T) {
		f, err := qof.BibTeX().Index("b.bib", bibtex.SampleEntry)
		if err != nil {
			t.Fatal(err)
		}
		const nameQuery = `SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`
		if _, err := f.QueryContext(t.Context(), nameQuery, qof.WithMaxRegions(1)); !errors.Is(err, qof.ErrBudgetExceeded) {
			t.Errorf("WithMaxRegions(1) on an index-only projection: err = %v, want ErrBudgetExceeded", err)
		}
		res, err := f.QueryContext(t.Context(), nameQuery, qof.WithMaxRegions(1_000_000))
		if err != nil || res.Len() != 2 || !strings.Contains(res.Explain(), "index-only projection") {
			t.Fatalf("%s: res = %v, err = %v, want both authors from an index-only plan", nameQuery, res, err)
		}
		scanned, err := qof.BibTeX().Index("b.bib", bibtex.SampleEntry, qof.WithRegions("Key"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scanned.QueryContext(t.Context(), matrixQuery, qof.WithMaxEvalBytes(1)); !errors.Is(err, qof.ErrBudgetExceeded) {
			t.Errorf("WithMaxEvalBytes(1) on a full scan: err = %v, want ErrBudgetExceeded", err)
		}
		if res, err := scanned.QueryContext(t.Context(), matrixQuery, qof.WithMaxEvalBytes(1<<30)); err != nil || res.Len() != 1 || !res.Stats.FullScan {
			t.Fatalf("full scan under a generous budget: res = %v, err = %v", res, err)
		}
	})
	// A join parses each variable's candidates through the phase-2 drain,
	// so a budget of one document's bytes runs out in the second variable's
	// drain, inline or on helpers.
	t.Run("join", func(t *testing.T) {
		src, _ := bibtex.Generate(bibtex.DefaultConfig(40))
		const yearJoin = `SELECT r.Key FROM References r, References s WHERE r.Year = s.Year`
		for _, par := range []int{1, 4} {
			t.Cleanup(pool.SetHelpers(par - 1))
			f, err := qof.BibTeX().Index("j.bib", src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.QueryContext(t.Context(), yearJoin)
			if err != nil || want.Len() != 40 {
				t.Fatalf("parallelism %d: unbudgeted join: res = %v, err = %v", par, want, err)
			}
			if _, err := f.QueryContext(t.Context(), yearJoin, qof.WithMaxEvalBytes(len(src))); !errors.Is(err, qof.ErrBudgetExceeded) {
				t.Errorf("parallelism %d: WithMaxEvalBytes(%d) on a join: err = %v, want ErrBudgetExceeded", par, len(src), err)
			}
			got, err := f.QueryContext(t.Context(), yearJoin, qof.WithMaxEvalBytes(1<<30))
			if err != nil {
				t.Fatal(err)
			}
			got.Stats.PlanCached = want.Stats.PlanCached // a repeat's plan is cached
			if !slices.Equal(got.Values, want.Values) || got.Stats != want.Stats {
				t.Errorf("parallelism %d: join under a generous budget: %v %+v, err = %v; unbudgeted %v %+v",
					par, got.Values, got.Stats, err, want.Values, want.Stats)
			}
		}
	})
}

func TestFacadeCorpusFileTimeout(t *testing.T) {
	c := qof.BibTeX().NewCorpus()
	files := map[string]string{"a.bib": bibtex.SampleEntry, "b.bib": bibtex.SampleEntry}
	if err := c.AddAll(files); err != nil {
		t.Fatal(err)
	}
	// Partial mode: every file blows its (instantly expired) budget and is
	// reported in Degraded with its own deadline error; the call succeeds.
	res, err := c.ExecuteContext(t.Context(), matrixQuery,
		qof.WithFileTimeout(time.Nanosecond), qof.WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 2 {
		t.Fatalf("Degraded = %v, want both files", res.Degraded)
	}
	for _, fe := range res.Degraded {
		if !errors.Is(fe.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", fe.File, fe.Err)
		}
	}
	if err := res.DegradedError(); !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "b.bib") {
		t.Errorf("DegradedError = %v", err)
	}
	// Without partial mode the same failure fails the call, still naming
	// every file.
	if _, err := c.ExecuteContext(t.Context(), matrixQuery, qof.WithFileTimeout(time.Nanosecond)); err == nil ||
		!errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "a.bib") {
		t.Errorf("non-partial: err = %v", err)
	}
	// And with a sane timeout the corpus serves in full.
	res, err = c.ExecuteContext(t.Context(), matrixQuery, qof.WithFileTimeout(time.Minute))
	if err != nil || len(res.Hits) != 2 || len(res.Degraded) != 0 {
		t.Fatalf("sane timeout: res = %+v, err = %v", res, err)
	}
}

func TestFacadeAddAllContextCancel(t *testing.T) {
	c := qof.BibTeX().NewCorpus()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	files := map[string]string{"a.bib": bibtex.SampleEntry, "b.bib": bibtex.SampleEntry}
	err := c.AddAllContext(ctx, files)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AddAllContext on canceled ctx: %v", err)
	}
	for name := range files {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not attribute %s", err, name)
		}
	}
	// Nothing was added; the corpus is intact and a clean AddAll works.
	if err := c.AddAllContext(context.Background(), files); err != nil {
		t.Fatal(err)
	}
	hits, err := c.Query(matrixQuery)
	if err != nil || len(hits) != 2 {
		t.Fatalf("after recovery: hits = %v, err = %v", hits, err)
	}
}

// TestLeftRecursiveSchemaIsABudgetError: a schema with a left-recursive rule
// (Item → Item "x") cannot be parsed by recursive descent. Indexing with it
// reports a typed ErrBudgetExceeded naming the symbol and offset — the
// parser used to panic at its depth limit, which the facade recovered as
// ErrInternal — and the process goes on indexing with other schemas.
func TestLeftRecursiveSchemaIsABudgetError(t *testing.T) {
	schema, err := qof.NewSchemaBuilder("Doc").
		Terminal("W", `[a-z]+`).
		Rule("Doc", qof.Rep("Item", "")).
		Rule("Item", qof.Lit("["), qof.NT("Word"), qof.Lit("]")).
		Rule("Item", qof.NT("Item"), qof.Lit("x")).
		Rule("Word", qof.Lit("'"), qof.Term("W")).
		BindClass("Items", "Item").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// After the last Item the repetition tries one more, the first
	// alternative fails on "[", and the second recurses without consuming.
	_, err = schema.Index("lr.txt", "['a] ['b]")
	var derr *grammar.DepthError
	if !errors.Is(err, qof.ErrBudgetExceeded) || errors.Is(err, qof.ErrInternal) || !errors.As(err, &derr) {
		t.Fatalf("Index: %v, want a depth error in the ErrBudgetExceeded family", err)
	}
	if derr.Sym != "Item" || derr.Offset != 9 || derr.Doc != "lr.txt" {
		t.Errorf("%+v, want symbol Item at offset 9 of lr.txt", derr)
	}
	file, err := qof.BibTeX().Index("s.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := file.Query(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`); err != nil || res.Len() != 1 {
		t.Fatalf("after the overflow: %v, %+v", err, res)
	}
}
