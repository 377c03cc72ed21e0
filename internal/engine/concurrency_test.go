package engine_test

// Concurrency stress tests: many goroutines share one Engine and every
// result must match the sequential baseline exactly. Run them under `go test
// -race` to prove the engine serves overlapping Execute calls without data
// races — the acceptance test of the concurrency work.

import (
	"fmt"
	"sync"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// concurrentQueries mixes every execution path: index-exact selection,
// projection (parses candidates), value join, path variables, negation,
// conjunctive filtering and whole-class enumeration.
var concurrentQueries = []string{
	changAuthorQuery,
	`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
	`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Title CONTAINS "Systems"`,
	`SELECT r FROM References r`,
}

// maskNondet zeroes the fields that legitimately differ run to run:
// PlanCached and the result-cache fields flip after the first execution.
// Everything else must be bit-identical across runs.
func maskNondet(st engine.Stats) engine.Stats {
	st.PlanCached = false
	st.ResultCached, st.ResultCacheHits = false, 0
	// PeakBytes depends on cache warmth (a cached candidate set skips the
	// intermediate buffers), so it is as nondeterministic as the cache
	// flags above under concurrent execution.
	st.PeakBytes = 0
	return st
}

// snapshot renders a result into a comparable form.
func snapshot(res *engine.Result) string {
	return fmt.Sprintf("%v|%v|%v|%+v", res.Regions.Regions(), res.Strings, res.Projected, maskNondet(res.Stats))
}

// runEngineConcurrent computes the sequential baseline for every query,
// then hammers the engine from workers goroutines and compares.
func runEngineConcurrent(t *testing.T, eng *engine.Engine, queries []*xsql.Query, workers, rounds int) {
	t.Helper()
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatalf("baseline %s: %v", q, err)
		}
		want[i] = snapshot(res)
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the starting query so goroutines overlap on
				// different plans as well as on the same plan.
				for off := range queries {
					i := (w + r + off) % len(queries)
					res, err := eng.Execute(queries[i])
					if err != nil {
						errc <- fmt.Errorf("worker %d: %s: %w", w, queries[i], err)
						return
					}
					if got := snapshot(res); got != want[i] {
						errc <- fmt.Errorf("worker %d: %s:\n got %s\nwant %s", w, queries[i], got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func parseAll(t *testing.T, srcs []string) []*xsql.Query {
	t.Helper()
	out := make([]*xsql.Query, len(srcs))
	for i, s := range srcs {
		out[i] = xsql.MustParse(s)
	}
	return out
}

func TestEngineExecuteConcurrent(t *testing.T) {
	queries := parseAll(t, concurrentQueries)

	t.Run("FullIndex", func(t *testing.T) {
		f := testutil.NewBibFixture(t, 80, grammar.IndexSpec{}, nil)
		runEngineConcurrent(t, f.Eng, queries, 8, 4)
	})

	t.Run("FullIndexParallelPhase2", func(t *testing.T) {
		t.Cleanup(pool.SetHelpers(3)) // overlapping calls contend for the helpers
		f := testutil.NewBibFixture(t, 80, grammar.IndexSpec{}, nil)
		runEngineConcurrent(t, f.Eng, queries, 8, 4)
	})

	t.Run("PartialIndex", func(t *testing.T) {
		// {Reference, Key, Last_Name} forces candidate parsing + filtering.
		f := testutil.NewBibFixture(t, 80, grammar.IndexSpec{
			Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName},
		}, nil)
		runEngineConcurrent(t, f.Eng, queries, 8, 4)
	})

	t.Run("FullScan", func(t *testing.T) {
		// Only Key indexed: the author query cannot be narrowed at all, so
		// concurrent executions exercise the full-scan path.
		f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{Names: []string{bibtex.NTKey}}, nil)
		fullScanQueries := parseAll(t, []string{
			changAuthorQuery,
			`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
		})
		runEngineConcurrent(t, f.Eng, fullScanQueries, 8, 3)
	})
}

// TestPhase2ParallelMatchesSequential pins down the chunked drain's merge:
// for every helper budget the result set, the result order and the parsing
// statistics must be identical to the sequential run's.
func TestPhase2ParallelMatchesSequential(t *testing.T) {
	t.Cleanup(pool.SetHelpers(0))
	f := testutil.NewBibFixture(t, 80, grammar.IndexSpec{
		Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName},
	}, nil)
	queries := parseAll(t, concurrentQueries)
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := f.Eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = snapshot(res)
	}
	for _, helpers := range []int{0, 1, 2, 3, 7} {
		t.Cleanup(pool.SetHelpers(helpers))
		for i, q := range queries {
			res, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatalf("%d helpers: %s: %v", helpers, q, err)
			}
			if got := snapshot(res); got != want[i] {
				t.Errorf("%d helpers: %s:\n got %s\nwant %s", helpers, q, got, want[i])
			}
		}
	}
}

// TestExecutePlanCache asserts that a repeated query is served from the
// plan cache and reports it via Stats.PlanCached.
func TestExecutePlanCache(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changAuthorQuery)
	first, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanCached {
		t.Error("first execution cannot be a cache hit")
	}
	// A semantically identical query parsed from different text normalizes
	// to the same key.
	q2 := xsql.MustParse("SELECT r FROM References r\n WHERE r.Authors.Name.Last_Name = \"Chang\"")
	second, err := f.Eng.Execute(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.PlanCached {
		t.Error("repeat execution should hit the plan cache")
	}
	if snapshot(first) != snapshot(second) {
		t.Errorf("cached result diverged:\n got %s\nwant %s", snapshot(second), snapshot(first))
	}
}
