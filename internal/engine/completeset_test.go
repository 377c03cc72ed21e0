package engine_test

// The plans whose phase 1 is a complete set — the Section 5.2 fast join and
// the full scan — hand their candidates to the same phase-2 loop the
// streamed plans feed. These tests pin what that buys (a LIMIT stops their
// parsing too) and what it must not cost (no stream or goroutine left behind
// by a run that ends early, and a full answer afterwards).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/qerr"
	"qof/internal/refeval"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// completeSetPlans are single-variable queries that reach phase 2 with a
// complete candidate set, whole-object and projected.
var completeSetPlans = []struct {
	name     string
	spec     grammar.IndexSpec
	src      string
	fastJoin bool // else a full scan
}{
	{"fast join", grammar.IndexSpec{}, valueJoinQuery, true},
	{"fast join, projected", grammar.IndexSpec{}, `SELECT r.Title FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`, true},
	{"full scan", grammar.IndexSpec{Names: []string{bibtex.NTKey}}, changAuthorQuery, false},
	{"full scan, projected", grammar.IndexSpec{Names: []string{bibtex.NTKey}}, `SELECT r.Title FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`, false},
}

// TestLimitOnCompleteSetPlans: under LIMIT k a fast-join or full-scan plan
// returns a document-order prefix of its unlimited answer with exactly
// min(k, full) rows, and parses no more than the unlimited run — fewer, when
// the drain is sequential and rows remain past the k-th. The unlimited answer
// is the brute-force oracle's.
func TestLimitOnCompleteSetPlans(t *testing.T) {
	for _, c := range completeSetPlans {
		for _, par := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/x%d", c.name, par), func(t *testing.T) {
				t.Cleanup(pool.SetHelpers(par - 1))
				f := testutil.NewBibFixture(t, 120, c.spec, nil)
				q := xsql.MustParse(c.src)
				full, err := f.Eng.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				if full.Stats.JoinFast != c.fastJoin || full.Stats.FullScan == c.fastJoin {
					t.Fatalf("not the plan under test: %+v\n%s", full.Stats, full.Plan.Explain())
				}
				oracle, err := refeval.NewOracle(f.Cat, f.Doc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !full.Regions.Equal(want.Regions) || !sameMultiset(full.Strings, want.Strings) {
					t.Fatalf("unlimited answer differs from the oracle's:\n  engine %v %v\n  oracle %v %v",
						full.Regions, full.Strings, want.Regions, want.Strings)
				}
				rows := full.Stats.Results
				if rows < 5 {
					t.Fatalf("fixture too small: %d rows", rows)
				}
				for _, k := range []int{1, 3, rows, rows + 5} {
					lim, err := f.Eng.Execute(q.WithLimit(k))
					if err != nil {
						t.Fatalf("LIMIT %d: %v", k, err)
					}
					if got := lim.Stats.Results; got != min(k, rows) {
						t.Errorf("LIMIT %d: %d rows, want %d", k, got, min(k, rows))
					}
					lr, fr := lim.Regions.Regions(), full.Regions.Regions()
					if len(lr) > len(fr) {
						t.Fatalf("LIMIT %d: %d regions, the full answer has %d", k, len(lr), len(fr))
					}
					for i := range lr {
						if lr[i] != fr[i] {
							t.Fatalf("LIMIT %d: region %d is %v, the full answer has %v", k, i, lr[i], fr[i])
						}
					}
					for i, s := range lim.Strings {
						if s != full.Strings[i] {
							t.Fatalf("LIMIT %d: string %d is %q, the full answer has %q", k, i, s, full.Strings[i])
						}
					}
					switch {
					case lim.Stats.Parsed > full.Stats.Parsed:
						t.Errorf("LIMIT %d parsed %d regions, the unlimited run %d", k, lim.Stats.Parsed, full.Stats.Parsed)
					case par == 1 && k < rows && full.Stats.Parsed > 0 && lim.Stats.Parsed == full.Stats.Parsed:
						t.Errorf("LIMIT %d of %d rows still parsed all %d regions", k, rows, full.Stats.Parsed)
					}
				}
			})
		}
	}
}

// sameMultiset compares up to order: the oracle answers in nested-loop
// order, the engine in document order.
func sameMultiset(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestCompleteSetPlansLeakNothing: a fast-join or full-scan drain that ends
// early — LIMIT, a cancel between two candidates, an injected phase-2 error
// or panic — leaves no open stream and no goroutine behind, sequentially and
// with the worker pool, and the engine answers in full afterwards.
func TestCompleteSetPlansLeakNothing(t *testing.T) {
	defer faultinject.Reset()
	for _, c := range completeSetPlans {
		for _, par := range []int{1, 3} {
			name := fmt.Sprintf("%s/x%d", c.name, par)
			t.Cleanup(pool.SetHelpers(par - 1))
			f := testutil.NewBibFixture(t, 120, c.spec, nil)
			q := xsql.MustParse(c.src)
			full, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			baseGoroutines, baseStreams := runtime.NumGoroutine(), algebra.OpenStreams()

			if _, err := f.Eng.Execute(q.WithLimit(2)); err != nil {
				t.Errorf("%s: LIMIT 2: %v", name, err)
			}
			// The delay of nothing only counts candidates for the cancel.
			if err := faultinject.Configure("engine.phase2=delay:0s"); err != nil {
				t.Fatal(err)
			}
			ctx := cancelAfterHits{Context: context.Background(), k: 3, done: make(chan struct{})}
			if _, err := f.Eng.ExecuteContext(ctx, q, engine.Limits{}); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: canceled after 3 candidates: %v, want context.Canceled", name, err)
			}
			for spec, want := range map[string]error{
				"engine.phase2=error@3": faultinject.ErrInjected,
				"engine.phase2=panic@3": qerr.ErrInternal,
			} {
				if err := faultinject.Configure(spec); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Eng.Execute(q); !errors.Is(err, want) {
					t.Errorf("%s: %s: %v, want %v", name, spec, err, want)
				}
			}
			faultinject.Reset()

			if n := algebra.OpenStreams(); n != baseStreams {
				t.Errorf("%s: %d streams open, %d before", name, n, baseStreams)
			}
			waitGoroutines(t, baseGoroutines)
			res, err := f.Eng.Execute(q)
			if err != nil || !res.Regions.Equal(full.Regions) || !sameMultiset(res.Strings, full.Strings) {
				t.Errorf("%s: after the early ends: %v, %v", name, res, err)
			}
		}
	}
}
