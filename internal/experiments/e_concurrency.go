package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/xsql"
)

// ConcurrencyWorkers is the goroutine-count sweep used by X2 and by
// BenchmarkConcurrentExecute.
var ConcurrencyWorkers = []int{1, 2, 4, 8}

// ConcurrencyQueries is the mixed read workload for the concurrency
// experiment: an index-exact selection, a projection (parses every matching
// candidate), a conjunctive filter, a value join, and a whole-class
// enumeration. Together they exercise every execution path of the engine.
var ConcurrencyQueries = []string{
	`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Title CONTAINS "Systems" AND r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
	`SELECT r.Key FROM References r`,
}

// ServeConcurrent drives total queries through the engine from the given
// number of client goroutines (work-stealing over a shared counter) and
// returns the wall-clock time. The queries cycle through the list in order,
// so every worker mixes all query shapes.
func ServeConcurrent(eng *engine.Engine, queries []*xsql.Query, workers, total int) (time.Duration, error) {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if _, err := eng.Execute(queries[i%len(queries)]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// phase2Queries are X2's phase-2 sweep: the benchmark's phase2_parse shape.
// On the paper's partial index {Reference, Key, Last_Name} a CONTAINS on the
// unindexed Abstract or Keywords makes every reference with the word
// anywhere in it a candidate, and each is parsed to see where the word is.
var phase2Queries = []string{
	`SELECT r FROM References r WHERE r.Abstract CONTAINS "term150"`,
	`SELECT r.Title FROM References r WHERE r.Keywords CONTAINS "term150"`,
	`SELECT r FROM References r WHERE r.Abstract CONTAINS "term300"`,
	`SELECT r.Title FROM References r WHERE r.Keywords CONTAINS "term300"`,
}

// X2 is an extension experiment: concurrent query serving. Mode "clients"
// drives N goroutines of mixed queries against one shared engine and reports
// throughput (the multi-member shared-access setting of Section 2); mode
// "phase2" runs phase2Queries from one caller with the helper budget
// pinned at N−1, so N goroutines parse, and reports single-query
// throughput. Speedups are relative to the 1-worker row
// of the same mode, and no mode can beat the host's core count.
func X2(opt Options) (*Table, error) {
	t := &Table{
		ID:     "X2",
		Title:  "extension: concurrent query serving (shared engine) and parallel phase-2",
		Header: []string{"mode", "workers", "queries", "elapsed_ms", "qps", "speedup"},
		Notes: []string{
			"clients: N goroutines share one Engine; work-stealing over a mixed query list",
			"phase2: one caller and N−1 helpers (pool.SetHelpers); CONTAINS selects on the partial index {Reference, Key, Last_Name}, every candidate parsed",
		},
	}
	n := opt.Sizes[0]
	setup, err := NewBibtexSetup(n, grammar.IndexSpec{}, nil)
	if err != nil {
		return nil, err
	}
	queries := make([]*xsql.Query, len(ConcurrencyQueries))
	for i, src := range ConcurrencyQueries {
		queries[i] = mustQuery(src)
	}

	total := 40 * opt.Repeats
	var base float64
	for _, w := range ConcurrencyWorkers {
		elapsed, err := ServeConcurrent(setup.Engine, queries, w, total)
		if err != nil {
			return nil, err
		}
		qps := float64(total) / elapsed.Seconds()
		if w == ConcurrencyWorkers[0] {
			base = qps
		}
		t.Rows = append(t.Rows, []string{
			"clients", itoa(w), itoa(total), ms(elapsed), fmtQPS(qps), fmtSpeedup(qps, base),
		})
	}

	partial, err := NewBibtexSetup(n, grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}, nil)
	if err != nil {
		return nil, err
	}
	parseHeavy := make([]*xsql.Query, len(phase2Queries))
	for i, src := range phase2Queries {
		parseHeavy[i] = mustQuery(src)
		res, err := partial.Engine.Execute(parseHeavy[i])
		if err != nil {
			return nil, err
		}
		if res.Stats.Parsed == 0 {
			return nil, fmt.Errorf("x2: %s parsed nothing; the phase-2 sweep would measure no phase 2", src)
		}
	}
	base = 0
	for _, w := range ConcurrencyWorkers {
		restore := pool.SetHelpers(w - 1)
		elapsed, err := ServeConcurrent(partial.Engine, parseHeavy, 1, total)
		restore()
		if err != nil {
			return nil, err
		}
		qps := float64(total) / elapsed.Seconds()
		if w == ConcurrencyWorkers[0] {
			base = qps
		}
		t.Rows = append(t.Rows, []string{
			"phase2", itoa(w), itoa(total), ms(elapsed), fmtQPS(qps), fmtSpeedup(qps, base),
		})
	}

	// One more run of the mixed list: by now every plan is cached.
	hits := 0
	for _, q := range queries {
		res, err := setup.Engine.Execute(q)
		if err != nil {
			return nil, err
		}
		if res.Stats.PlanCached {
			hits++
		}
	}
	t.Notes = append(t.Notes, fmtCacheNote(hits, len(queries)))
	return t, nil
}

func fmtQPS(qps float64) string { return fmt.Sprintf("%.1f", qps) }

func fmtSpeedup(q, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", q/b)
}

func fmtCacheNote(hits, total int) string {
	return fmt.Sprintf("plan cache: %d/%d repeat queries served from cache", hits, total)
}
