package qof_test

// Corpus tests: bulk and incremental indexing, the fan-out over the files,
// cancellation, per-file timeouts and error attribution, and concurrent
// queries on one corpus. Run them under `go test -race`.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qof"
	"qof/internal/bibtex"
	"qof/internal/faultinject"
	"qof/internal/pool"
	"qof/internal/testutil"
	"qof/internal/text"
)

// fileMap is docs keyed by name, as AddAll takes them.
func fileMap(docs []*text.Document) map[string]string {
	files := make(map[string]string, len(docs))
	for _, d := range docs {
		files[d.Name()] = d.Content()
	}
	return files
}

// execute runs src over c with opts, failing the test on error.
func execute(t *testing.T, c *qof.Corpus, src string, opts ...qof.QueryOption) *qof.CorpusResults {
	t.Helper()
	res, err := c.ExecuteContext(context.Background(), src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// corpusSnapshot renders a corpus result comparably.
func corpusSnapshot(res *qof.CorpusResults) string {
	return fmt.Sprintf("%+v|%+v", res.Hits, res.Stats)
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

func TestCorpusQuery(t *testing.T) {
	corpus := qof.BibTeX().NewCorpus()
	wantTotal := 0
	for i := 0; i < 4; i++ {
		doc, st := testutil.BibDoc(t, fmt.Sprintf("lib%d.bib", i), 25, func(cfg *bibtex.Config) {
			cfg.Seed = int64(100 + i)
			cfg.TargetAuthorShare = 0.2
		})
		if err := corpus.Add(doc.Name(), doc.Content()); err != nil {
			t.Fatal(err)
		}
		wantTotal += st.TargetAsAuthor
	}
	if n := len(qof.CorpusFiles(corpus)); n != 4 {
		t.Fatalf("%d files", n)
	}
	res := execute(t, corpus, changQuery)
	if res.Stats.Results != wantTotal {
		t.Fatalf("results = %d, want %d", res.Stats.Results, wantTotal)
	}
	if len(res.Hits) == 0 || len(res.Hits) > 4 {
		t.Fatalf("hits = %d", len(res.Hits))
	}
	spans := 0
	for _, h := range res.Hits {
		if len(h.Spans) == 0 || h.Values != nil {
			t.Errorf("file %s: %d spans, values %v", h.File, len(h.Spans), h.Values)
		}
		spans += len(h.Spans)
	}
	if spans != wantTotal {
		t.Errorf("%d spans over the hits, want %d", spans, wantTotal)
	}
	if !res.Stats.Exact {
		t.Error("full indexing should be exact")
	}
}

func TestCorpusProjection(t *testing.T) {
	corpus := qof.BibTeX().NewCorpus()
	for i := 0; i < 2; i++ {
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("l%d.bib", i), 10, func(cfg *bibtex.Config) {
			cfg.Seed = int64(i)
		})
		if err := corpus.Add(doc.Name(), doc.Content()); err != nil {
			t.Fatal(err)
		}
	}
	res := execute(t, corpus, `SELECT r.Key FROM References r`)
	values := 0
	for _, h := range res.Hits {
		values += len(h.Values)
	}
	if values != 20 || res.Stats.Results != 20 {
		t.Fatalf("projection: %d strings, %d results", values, res.Stats.Results)
	}
}

// TestCorpusAddAll checks that the parallel bulk build produces a corpus
// identical to sequential Adds: same order, same per-file results.
func TestCorpusAddAll(t *testing.T) {
	var docs []*text.Document
	seq := qof.BibTeX().NewCorpus()
	for i := 0; i < 6; i++ {
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("b%d.bib", i), 20, func(cfg *bibtex.Config) {
			cfg.Seed = int64(i)
			cfg.TargetAuthorShare = 0.3
		})
		docs = append(docs, doc)
		if err := seq.Add(doc.Name(), doc.Content()); err != nil {
			t.Fatal(err)
		}
	}
	bulk := qof.BibTeX().NewCorpus()
	t.Cleanup(pool.SetHelpers(3))
	if err := bulk.AddAll(fileMap(docs)); err != nil {
		t.Fatal(err)
	}
	if got, want := len(qof.CorpusFiles(bulk)), len(qof.CorpusFiles(seq)); got != want {
		t.Fatalf("%d files, want %d", got, want)
	}
	a, b := execute(t, seq, changQuery), execute(t, bulk, changQuery)
	if len(a.Hits) == 0 {
		t.Fatal("no file answers: the comparison is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sequential and bulk corpora differ (order or contents):\n%s\n%s", corpusSnapshot(a), corpusSnapshot(b))
	}
}

// TestCorpusAddAllError checks that a bad document fails the whole bulk add
// and leaves the corpus unchanged.
func TestCorpusAddAllError(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	corpus := qof.BibTeX().NewCorpus()
	good, _ := testutil.BibDoc(t, "ok.bib", 5, nil)
	files := map[string]string{good.Name(): good.Content(), "bad.bib": "not bibtex"}
	if err := corpus.AddAll(files); err == nil {
		t.Fatal("unparseable file accepted")
	}
	if n := len(qof.CorpusFiles(corpus)); n != 0 {
		t.Fatalf("failed AddAll left %d files behind", n)
	}
}

func TestCorpusAddError(t *testing.T) {
	corpus := qof.BibTeX().NewCorpus()
	if err := corpus.Add("bad.bib", "not bibtex"); err == nil {
		t.Fatal("unparseable file accepted")
	}
}

func TestCorpusParallel(t *testing.T) {
	seq, par := qof.BibTeX().NewCorpus(), qof.BibTeX().NewCorpus()
	for i := 0; i < 6; i++ {
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("p%d.bib", i), 20, func(cfg *bibtex.Config) {
			cfg.Seed = int64(i)
			cfg.TargetAuthorShare = 0.3
		})
		if err := seq.Add(doc.Name(), doc.Content()); err != nil {
			t.Fatal(err)
		}
		if err := par.Add(doc.Name(), doc.Content()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(pool.SetHelpers(0))
	a := execute(t, seq, changQuery)
	t.Cleanup(pool.SetHelpers(3))
	b := execute(t, par, changQuery)
	if len(a.Hits) == 0 {
		t.Fatal("no file answers: the comparison is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sequential and parallel answers differ:\n%s\n%s", corpusSnapshot(a), corpusSnapshot(b))
	}
}

// TestCorpusFanOutBound: a 16-file corpus runs its files on the caller's
// goroutine and on the process's helpers, never more than the budget at
// once and never on a goroutine of its own, and answers as the sequential
// corpus does.
func TestCorpusFanOutBound(t *testing.T) {
	defer faultinject.Reset()
	t.Cleanup(pool.SetHelpers(0))
	c := qof.BibTeX().NewCorpus()
	if err := c.AddAll(fileMap(testutil.BibCorpusDocs(t, 16, 30))); err != nil {
		t.Fatal(err)
	}
	want := execute(t, c, changQuery)
	t.Cleanup(pool.SetHelpers(3))
	// Every file stalls a little, so the helpers overlap.
	if err := faultinject.Configure("corpus.file=delay:2ms"); err != nil {
		t.Fatal(err)
	}
	probe := testutil.NewGoroutineProbe()
	base := runtime.NumGoroutine()
	got, err := c.ExecuteContext(probe, changQuery)
	if err != nil {
		t.Fatal(err)
	}
	if corpusSnapshot(got) != corpusSnapshot(want) {
		t.Errorf("parallel corpus answer differs:\n got %s\nwant %s", corpusSnapshot(got), corpusSnapshot(want))
	}
	switch busy := probe.MaxBusy(); {
	case busy > pool.Size():
		t.Errorf("%d helpers busy at once, the budget is %d", busy, pool.Size())
	case busy < 1:
		t.Errorf("no helper ran beside the caller")
	}
	if extra := probe.Max() - base; extra > 0 {
		t.Errorf("%d goroutines started; the fan-out may only take helpers", extra)
	}
}

// TestCorpusReindexKeepsUnchanged: Reindex builds exactly the files that
// are new or changed, or whose options changed, and hands every other one
// the old corpus's File; the old corpus is untouched.
func TestCorpusReindexKeepsUnchanged(t *testing.T) {
	docs := testutil.BibCorpusDocs(t, 4, 20)
	old := qof.BibTeX().NewCorpus()
	if err := old.AddAll(fileMap(docs[:3])); err != nil {
		t.Fatal(err)
	}
	was := qof.CorpusFiles(old)
	edited := text.NewDocument(docs[1].Name(), docs[1].Content()+"\n")
	next := []*text.Document{docs[0], edited, docs[3]} // docs[2] dropped, docs[3] new
	c, built, err := old.Reindex(t.Context(), fileMap(next))
	if err != nil {
		t.Fatal(err)
	}
	now := qof.CorpusFiles(c)
	if built != 2 || len(now) != 3 {
		t.Fatalf("built %d, %d files; want 2, 3", built, len(now))
	}
	if now[0] != was[0] || now[1] == was[1] {
		t.Error("Reindex did not keep exactly the unchanged file")
	}
	for i, f := range now {
		if f.Name() != next[i].Name() || f.Content() != next[i].Content() {
			t.Errorf("file %d is %s, want %s", i, f.Name(), next[i].Name())
		}
	}
	if files := qof.CorpusFiles(old); len(files) != 3 || files[1] != was[1] {
		t.Error("Reindex changed the corpus it was called on")
	}
	if _, built, err := c.Reindex(t.Context(), fileMap(next), qof.WithRegions("Reference", "Key")); err != nil || built != 3 {
		t.Errorf("Reindex under other options built %d files (%v), want all 3", built, err)
	}
}

// TestCancelMidAddAll cancels a parallel corpus ingest mid-build. The
// corpus must either ingest everything or be left unchanged with every
// unbuilt file attributed in the joined error; no goroutines may leak.
func TestCancelMidAddAll(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	base := runtime.NumGoroutine()
	docs := testutil.BibCorpusDocs(t, 12, 40)
	files := fileMap(docs)
	for round := 0; round < 10; round++ {
		c := qof.BibTeX().NewCorpus()
		ctx, cancel := context.WithCancel(context.Background())
		go func(round int) {
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			cancel()
		}(round)
		err := c.AddAllContext(ctx, files)
		cancel()
		n := len(qof.CorpusFiles(c))
		if err == nil {
			if n != len(docs) {
				t.Fatalf("round %d: nil error but %d/%d files added", round, n, len(docs))
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: unexpected error: %v", round, err)
		}
		if n != 0 {
			t.Fatalf("round %d: failed AddAll left %d files in the corpus", round, n)
		}
		// Attribution: the joined error names each unbuilt file.
		if !strings.Contains(err.Error(), ".bib") {
			t.Fatalf("round %d: error lacks file attribution: %v", round, err)
		}
	}
	waitGoroutines(t, base)
}

// TestCorpusExecuteContextCancel cancels corpus queries running across
// the caller and the helpers.
func TestCorpusExecuteContextCancel(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	base := runtime.NumGoroutine()
	c := qof.BibTeX().NewCorpus()
	if err := c.AddAll(fileMap(testutil.BibCorpusDocs(t, 8, 60))); err != nil {
		t.Fatal(err)
	}
	want := execute(t, c, changQuery)
	for round := 0; round < 15; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(round int) {
			time.Sleep(time.Duration(round) * 150 * time.Microsecond)
			cancel()
		}(round)
		res, err := c.ExecuteContext(ctx, changQuery)
		cancel()
		switch {
		case err == nil:
			if res.Stats.Results != want.Stats.Results {
				t.Fatalf("round %d: completed run diverged", round)
			}
		case errors.Is(err, context.Canceled):
		default:
			t.Fatalf("round %d: unexpected error: %v", round, err)
		}
	}
	// Still serving, and identically.
	if res := execute(t, c, changQuery); res.Stats.Results != want.Stats.Results {
		t.Fatal("post-storm corpus result diverged")
	}
	waitGoroutines(t, base)
}

// TestCorpusFileTimeoutPartial exercises graceful degradation: with an
// impossible per-file timeout and partial results, every file fails with an
// attributed DeadlineExceeded and the call still returns a (fully degraded)
// result rather than an error.
func TestCorpusFileTimeoutPartial(t *testing.T) {
	c := qof.BibTeX().NewCorpus()
	if err := c.AddAll(fileMap(testutil.BibCorpusDocs(t, 3, 30))); err != nil {
		t.Fatal(err)
	}
	// The timeout expires before any file's first poll.
	res := execute(t, c, changQuery, qof.WithFileTimeout(time.Nanosecond), qof.WithPartialResults())
	if len(res.Degraded) != 3 {
		t.Fatalf("Degraded has %d entries, want 3", len(res.Degraded))
	}
	derr := res.DegradedError()
	if !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("DegradedError = %v, want DeadlineExceeded", derr)
	}
	for _, fail := range res.Degraded {
		if fail.File == "" || fail.Err == nil {
			t.Fatalf("degraded entry lacks attribution: %+v", fail)
		}
		if !strings.Contains(derr.Error(), fail.File) {
			t.Fatalf("DegradedError does not name %s: %v", fail.File, derr)
		}
	}
	// Without partial results the same failure is an error naming every file.
	_, err := c.ExecuteContext(context.Background(), changQuery, qof.WithFileTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("non-partial: %v, want DeadlineExceeded", err)
	}
	for _, d := range res.Degraded {
		if !strings.Contains(err.Error(), d.File) {
			t.Fatalf("joined error does not name %s: %v", d.File, err)
		}
	}
}

// TestCorpusExecuteAggregatesErrors proves a corpus query reports every
// failing file, not only the first (per-file budget violations here).
func TestCorpusExecuteAggregatesErrors(t *testing.T) {
	c := qof.BibTeX().NewCorpus()
	docs := testutil.BibCorpusDocs(t, 3, 30)
	if err := c.AddAll(fileMap(docs)); err != nil {
		t.Fatal(err)
	}
	_, err := c.ExecuteContext(context.Background(), changQuery, qof.WithMaxRegions(1))
	if !errors.Is(err, qof.ErrBudgetExceeded) {
		t.Fatalf("budget corpus run: %v, want ErrBudgetExceeded", err)
	}
	for _, d := range docs {
		if !strings.Contains(err.Error(), d.Name()) {
			t.Fatalf("joined error missing file %s: %v", d.Name(), err)
		}
	}
}

// corpusQueries mixes every execution path: index-exact selection,
// projection (parses candidates), value join, path variables, negation,
// conjunctive filtering and whole-class enumeration.
var corpusQueries = []string{
	changQuery,
	`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
	`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Title CONTAINS "Systems"`,
	`SELECT r FROM References r`,
}

// TestCorpusExecuteConcurrent: many goroutines share one corpus and every
// result matches the sequential baseline exactly.
func TestCorpusExecuteConcurrent(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	corpus := qof.BibTeX().NewCorpus()
	for i := 0; i < 6; i++ {
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("file%d.bib", i), 30+7*i, func(cfg *bibtex.Config) {
			cfg.Seed = int64(i + 1)
		})
		if err := corpus.Add(doc.Name(), doc.Content()); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]string, len(corpusQueries))
	for i, q := range corpusQueries {
		want[i] = corpusSnapshot(execute(t, corpus, q))
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for off := range corpusQueries {
					i := (w + r + off) % len(corpusQueries)
					res, err := corpus.ExecuteContext(context.Background(), corpusQueries[i])
					if err != nil {
						errc <- fmt.Errorf("worker %d: %s: %w", w, corpusQueries[i], err)
						return
					}
					if got := corpusSnapshot(res); got != want[i] {
						errc <- fmt.Errorf("worker %d: %s: corpus result diverged", w, corpusQueries[i])
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
