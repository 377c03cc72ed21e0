package engine_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

const cacheProbeQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

// TestResultCacheRepeatedQuery asserts that a repeated query's candidate set
// is served from the cross-query result cache and reported via Stats.
func TestResultCacheRepeatedQuery(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(cacheProbeQuery)
	first, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ResultCached || first.Stats.ResultCacheHits != 0 {
		t.Errorf("first execution cannot be a result-cache hit: %+v", first.Stats)
	}
	second, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.ResultCached || second.Stats.ResultCacheHits == 0 {
		t.Errorf("repeat execution should hit the result cache: %+v", second.Stats)
	}
	if !second.Regions.Equal(first.Regions) {
		t.Errorf("cached result diverged:\n got %v\nwant %v", second.Regions, first.Regions)
	}
}

// TestLimitStoppedStreamPublishesNoPartialSet: a streaming execution that a
// LIMIT stops early drains only a prefix of the candidate stream, so it must
// never publish that prefix — only a complete set is a cacheable answer. The
// full query that follows computes its whole answer and publishes it, after
// which a limited run legitimately reads the cached set, clamped to the limit.
func TestLimitStoppedStreamPublishesNoPartialSet(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	full := xsql.MustParse(cacheProbeQuery)
	want, err := f.Eng.Execute(full)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Results < 2 {
		t.Fatalf("fixture too small: %d results, need >= 2 for LIMIT to truncate", want.Stats.Results)
	}
	// Fresh engine so the probe's published result doesn't serve the
	// limited run.
	f = testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	lq := full.WithLimit(1)
	res, err := f.Eng.Execute(lq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != 1 || res.Stats.ResultCached {
		t.Fatalf("limited first run: results=%d cached=%v, want 1 row streamed", res.Stats.Results, res.Stats.ResultCached)
	}
	if n := engine.CachedSets(f.Eng); n != 0 {
		t.Errorf("LIMIT-stopped stream left %d sets in the result cache", n)
	}
	// The full query finds no partial set to read, computes the whole
	// answer and publishes it...
	res, err = f.Eng.Execute(full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResultCached || !res.Regions.Equal(want.Regions) {
		t.Errorf("full run after a LIMIT run: cached=%v regions=%v, want %v computed",
			res.Stats.ResultCached, res.Regions, want.Regions)
	}
	res, err = f.Eng.Execute(full)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultCached || !res.Regions.Equal(want.Regions) {
		t.Errorf("full repeat: cached=%v regions=%v, want %v from the cache",
			res.Stats.ResultCached, res.Regions, want.Regions)
	}
	// ...and the warm cache serves a subsequent limited run, still clamped
	// to the limit.
	res, err = f.Eng.Execute(lq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultCached || res.Stats.Results != 1 {
		t.Errorf("limited run on warm cache: cached=%v results=%d, want cached 1 row",
			res.Stats.ResultCached, res.Stats.Results)
	}
}

// cancelAfter is a context whose Done is open for its first polls and
// closed from then on, with Err context.Canceled, so an execution polling it
// dies at a fixed point partway through.
type cancelAfter struct {
	context.Context
	done  chan struct{}
	polls int // polls left before the cancel
}

func newCancelAfter(polls int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), done: make(chan struct{}), polls: polls}
}

// closed is the Done channel of a context that is over.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done counts a poll: an open channel until the polls are spent, then a
// closed one.
func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls--; c.polls < 0 {
		return closed
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	if c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestLimitRepeatStreamsOnceThenPublishes pins the doorkeeper's sequence on
// one engine: a LIMIT query's first miss streams and publishes nothing, its
// second miss runs the set evaluator and publishes the whole set, and its
// third run is a cache hit. Budgeted runs neither read, record nor take the
// set path; a second miss killed mid-evaluation publishes nothing and leaves
// the key recorded; an index mutation orphans the recorded key.
func TestLimitRepeatStreamsOnceThenPublishes(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	full := xsql.MustParse(cacheProbeQuery)
	want, err := f.Eng.Execute(full)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1
	if want.Stats.Candidates <= limit {
		t.Fatalf("fixture too small: %d candidates, need > %d", want.Stats.Candidates, limit)
	}
	f = testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	lq := full.WithLimit(limit)
	run := func(name string, lim engine.Limits) *engine.Result {
		t.Helper()
		res, err := f.Eng.ExecuteContext(context.Background(), lq, lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Results != limit || !res.Regions.Equal(region.FromRegions(want.Regions.Regions()[:limit])) {
			t.Fatalf("%s: %v, want the first %d of %v", name, res.Regions, limit, want.Regions)
		}
		return res
	}
	budget := engine.Limits{MaxRegions: 1 << 30}
	expect := func(name string, res *engine.Result, cached bool, sets int) {
		t.Helper()
		if res != nil && res.Stats.ResultCached != cached {
			t.Errorf("%s: ResultCached = %v, want %v", name, res.Stats.ResultCached, cached)
		}
		if n := engine.CachedSets(f.Eng); n != sets {
			t.Errorf("%s: %d sets in the result cache, want %d", name, n, sets)
		}
	}

	// Budgeted runs record nothing: every one streams, and so does the
	// first unbudgeted run after them.
	for i := 0; i < 3; i++ {
		expect("budgeted before any record", run("budgeted", budget), false, 0)
	}
	first := run("run 1", engine.Limits{})
	expect("run 1", first, false, 0)
	if first.Stats.Candidates >= want.Stats.Candidates {
		t.Errorf("run 1 pulled %d candidates, want fewer than the full set's %d", first.Stats.Candidates, want.Stats.Candidates)
	}
	// The key is recorded now, but a budgeted run still streams: the set
	// path would have published.
	expect("budgeted after the record", run("budgeted", budget), false, 0)

	// A second miss killed in the set evaluation publishes nothing...
	if _, err := f.Eng.ExecuteContext(newCancelAfter(2), lq, engine.Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("second miss under a mid-evaluation cancel: %v, want context.Canceled", err)
	}
	expect("killed second miss", nil, false, 0)
	// ...and leaves the key recorded: the next miss publishes the set (and
	// the evaluation's worthy subexpressions with it).
	second := run("run 2", engine.Limits{})
	published := engine.CachedSets(f.Eng)
	if second.Stats.ResultCached || published == 0 {
		t.Fatalf("run 2: cached=%v with %d sets in the result cache, want a miss that publishes",
			second.Stats.ResultCached, published)
	}
	third := run("run 3", engine.Limits{})
	expect("run 3", third, true, published)
	if third.Stats.Candidates != limit {
		t.Errorf("run 3 pulled %d candidates off the cached set, want %d", third.Stats.Candidates, limit)
	}
	// A budgeted run never reads the published set.
	expect("budgeted after the publish", run("budgeted", budget), false, published)
}

// TestResultCacheSplice checks the splice path: the engine over the spliced
// instance has a cache of its own, so it recomputes — no set of the parent's
// can be served — and sees the edited data.
func TestResultCacheSplice(t *testing.T) {
	f := testutil.NewBibFixture(t, 20, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(cacheProbeQuery)
	if _, err := f.Eng.Execute(q); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Eng.Execute(q); err != nil {
		t.Fatal(err)
	}
	refs := f.In.MustRegion(bibtex.NTReference)
	in2, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, refs.At(3), editedReference)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(f.Cat, in2)
	res, err := eng2.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResultCached {
		t.Error("fresh engine over spliced instance cannot hit the result cache")
	}
	if res.Regions.Len() == 0 {
		t.Error("edited reference (author Chang) not visible after splice")
	}
}

// TestResultCacheDisabled checks the benchmarking knob: with the cache off,
// repeated queries recompute and report no cache activity.
func TestResultCacheDisabled(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	f.Eng.DisableResultCache()
	q := xsql.MustParse(cacheProbeQuery)
	first, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ResultCached || second.Stats.ResultCacheHits != 0 {
		t.Errorf("disabled cache still reported hits: %+v", second.Stats)
	}
	if !second.Regions.Equal(first.Regions) {
		t.Errorf("results diverged without cache:\n got %v\nwant %v", second.Regions, first.Regions)
	}
}

// TestResultCacheStress interleaves concurrent query execution with edits
// to let the race detector examine the cache's locking. Edits follow the
// supported concurrency pattern: each makes a new instance, and an engine
// over it is swapped in atomically; in-flight queries finish against the
// old engine. Results are checked for errors only; an edit's correctness is
// covered by TestResultCacheSplice and the edit tests.
func TestResultCacheStress(t *testing.T) {
	f := testutil.NewBibFixture(t, 30, grammar.IndexSpec{}, nil)
	var cur atomic.Pointer[engine.Engine]
	cur.Store(f.Eng)

	queries := []*xsql.Query{
		xsql.MustParse(cacheProbeQuery),
		xsql.MustParse(`SELECT r.Key FROM References r WHERE r.Title CONTAINS "Systems"`),
		xsql.MustParse(`SELECT r FROM References r WHERE r.Year = "1991"`),
		// A LIMIT repeat records its key, then publishes on its next miss,
		// racing the other readers across the engine swaps.
		xsql.MustParse(cacheProbeQuery + ` LIMIT 1`),
	}
	const readers = 4
	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := cur.Load().Execute(queries[(w+i)%len(queries)]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			in := cur.Load().Instance()
			refs := in.MustRegion(bibtex.NTReference)
			in2, err := engine.ReplaceRegion(f.Cat, in, bibtex.NTReference, refs.At(i%refs.Len()), editedReference)
			if err != nil {
				errc <- err
				return
			}
			cur.Store(engine.New(f.Cat, in2))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
