package engine_test

import (
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

// TestResultCacheLRU exercises the cache mechanics directly: bounded
// capacity, least-recently-used eviction, and refresh on Get and Put.
func TestResultCacheLRU(t *testing.T) {
	rc := engine.NewResultCache(2)
	set := func(start int) region.Set {
		return region.FromRegions([]region.Region{{Start: start, End: start + 1}})
	}
	rc.Put("a", set(0))
	rc.Put("b", set(1))
	if _, ok := rc.Get("a"); !ok { // refresh a: now b is oldest
		t.Fatal("a missing")
	}
	rc.Put("c", set(2)) // evicts b
	if _, ok := rc.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := rc.Get("a"); !ok {
		t.Error("refreshed entry a was evicted")
	}
	rc.Put("a", set(9)) // refresh with new contents
	if s, ok := rc.Get("a"); !ok || s.At(0).Start != 9 {
		t.Errorf("Put did not refresh existing entry: %v %v", s, ok)
	}
	if rc.Len() != 2 {
		t.Errorf("Len = %d, want 2", rc.Len())
	}
	if hits, misses := rc.Counters(); hits == 0 || misses == 0 {
		t.Errorf("counters: hits=%d misses=%d", hits, misses)
	}
	if engine.NewResultCache(0).Len() != 0 {
		t.Error("zero-capacity cache should clamp, not panic")
	}
}

// TestResultCacheRepeatedQuery asserts that a repeated query's candidate set
// is served from the cross-query result cache and reported via Stats.
func TestResultCacheRepeatedQuery(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(cacheProbeQuery)
	first, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ResultCached {
		t.Error("first execution cannot be a result-cache hit")
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
	hits, misses := f.Eng.CacheCounters()
	if hits == 0 || misses == 0 {
		t.Errorf("counters should show both hits and misses: hits=%d misses=%d", hits, misses)
	}
}

// TestLimitStoppedStreamNeverCached: a streaming execution that LIMIT stops
// early drains only a prefix of the candidate stream, so it must never
// publish to the cross-query result cache — only a complete drain is a
// cacheable answer. A later full run still publishes, after which a limited
// run may legitimately read the cached set (and clamp it).
func TestLimitStoppedStreamNeverCached(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	full := xsql.MustParse(cacheProbeQuery)
	probe, err := f.Eng.Execute(full)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Stats.Results < 2 {
		t.Fatalf("fixture too small: %d results, need >= 2 for LIMIT to truncate", probe.Stats.Results)
	}
	// Fresh engine so the probe's published result doesn't serve the
	// limited runs.
	f = testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	lq := full.WithLimit(1)
	for run := 0; run < 3; run++ {
		res, err := f.Eng.Execute(lq)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Stats.Results != 1 {
			t.Fatalf("run %d: %d results, want 1", run, res.Stats.Results)
		}
		if res.Stats.ResultCached {
			t.Errorf("run %d: truncated stream served from the result cache", run)
		}
	}
	if hits, _ := f.Eng.CacheCounters(); hits != 0 {
		t.Errorf("result cache served %d hits after only LIMIT-stopped runs", hits)
	}
	// A complete drain publishes as usual...
	if _, err := f.Eng.Execute(full); err != nil {
		t.Fatal(err)
	}
	res, err := f.Eng.Execute(full)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultCached {
		t.Error("full run after LIMIT runs did not publish to the result cache")
	}
	// ...and the warm cache legitimately serves a subsequent limited run,
	// still clamped to the limit.
	res, err = f.Eng.Execute(lq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultCached || res.Stats.Results != 1 {
		t.Errorf("limited run on warm cache: cached=%v results=%d, want cached 1 row",
			res.Stats.ResultCached, res.Stats.Results)
	}
}

// TestResultCacheInvalidation drives every index-mutating operation and
// checks that the warm result cache is bypassed afterwards (the epoch in the
// key changed) yet results stay correct, and that the recomputed set is
// re-cached under the new epoch.
func TestResultCacheInvalidation(t *testing.T) {
	extra := region.FromRegions([]region.Region{{Start: 0, End: 5}})
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, f *testutil.BibFixture)
	}{
		{"define", func(t *testing.T, f *testutil.BibFixture) {
			f.In.Define("Extra", extra)
		}},
		{"define-scoped", func(t *testing.T, f *testutil.BibFixture) {
			f.In.DefineScoped("ExtraScoped", bibtex.NTReference, extra)
		}},
		{"drop", func(t *testing.T, f *testutil.BibFixture) {
			f.In.Define("Doomed", extra)
			f.In.Drop("Doomed")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
			q := xsql.MustParse(cacheProbeQuery)
			warm, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := f.Eng.Execute(q); err != nil || !res.Stats.ResultCached {
				t.Fatalf("cache not warm before mutation: %+v err=%v", res.Stats, err)
			}
			tc.mutate(t, f)
			after, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if after.Stats.ResultCached {
				t.Error("mutation did not invalidate the result cache")
			}
			if !after.Regions.Equal(warm.Regions) {
				t.Errorf("recomputed result diverged:\n got %v\nwant %v", after.Regions, warm.Regions)
			}
			again, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Stats.ResultCached {
				t.Error("recomputed result was not re-cached under the new epoch")
			}
		})
	}
}

// TestResultCacheSplice checks the splice path: the engine over the spliced
// instance recomputes — its epoch is past the parent's, so no stale set can
// be served — and sees the edited data.
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
	_, in2, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, refs.At(3), editedReference)
	if err != nil {
		t.Fatal(err)
	}
	if in2.Epoch() <= f.In.Epoch()-1 {
		t.Fatalf("spliced epoch %d not past parent %d", in2.Epoch(), f.In.Epoch())
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

// TestResultCacheStress interleaves concurrent query execution with index
// updates to let the race detector examine the epoch counter and the cache's
// locking. Updates follow the supported concurrency pattern: Define/Drop and
// splices are applied to a not-yet-published instance, then an engine over
// it is swapped in atomically; in-flight queries finish against the old
// engine. Results are checked for errors only; correctness under mutation is
// covered by the invalidation tests above.
func TestResultCacheStress(t *testing.T) {
	f := testutil.NewBibFixture(t, 30, grammar.IndexSpec{}, nil)
	var cur atomic.Pointer[engine.Engine]
	cur.Store(f.Eng)

	queries := []*xsql.Query{
		xsql.MustParse(cacheProbeQuery),
		xsql.MustParse(`SELECT r.Key FROM References r WHERE r.Title CONTAINS "Systems"`),
		xsql.MustParse(`SELECT r FROM References r WHERE r.Year = "1991"`),
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
		extra := region.FromRegions([]region.Region{{Start: 0, End: 5}})
		for i := 0; i < 10; i++ {
			in := cur.Load().Instance()
			refs := in.MustRegion(bibtex.NTReference)
			_, in2, err := engine.ReplaceRegion(f.Cat, in, bibtex.NTReference, refs.At(i%refs.Len()), editedReference)
			if err != nil {
				errc <- err
				return
			}
			// Mutate the new instance before it becomes visible; readers
			// never observe an instance mid-mutation.
			in2.Define("Stress", extra)
			in2.Drop("Stress")
			cur.Store(engine.New(f.Cat, in2))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
