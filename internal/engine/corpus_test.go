package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/testutil"
	"qof/internal/text"
	"qof/internal/xsql"
)

func TestCorpusQuery(t *testing.T) {
	cat := bibtex.Catalog()
	corpus := engine.NewCorpus(cat)
	wantTotal := 0
	for i := 0; i < 4; i++ {
		doc, st := testutil.BibDoc(t, fmt.Sprintf("lib%d.bib", i), 25, func(cfg *bibtex.Config) {
			cfg.Seed = int64(100 + i)
			cfg.TargetAuthorShare = 0.2
		})
		if err := corpus.Add(doc, grammar.IndexSpec{}); err != nil {
			t.Fatal(err)
		}
		wantTotal += st.TargetAsAuthor
	}
	if corpus.Len() != 4 {
		t.Fatalf("Len = %d", corpus.Len())
	}
	res, err := corpus.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatal(err)
	}
	if res.Results() != wantTotal {
		t.Fatalf("results = %d, want %d", res.Results(), wantTotal)
	}
	if len(res.Hits) == 0 || len(res.Hits) > 4 {
		t.Fatalf("hits = %d", len(res.Hits))
	}
	for _, h := range res.Hits {
		if h.Stats.Results != h.Regions.Len() || h.Stats.Results == 0 {
			t.Errorf("file %s: results %d regions %d", h.File, h.Stats.Results, h.Regions.Len())
		}
	}
	if !res.Stats.Exact {
		t.Error("full indexing should be exact")
	}
}

func TestCorpusProjection(t *testing.T) {
	cat := bibtex.Catalog()
	corpus := engine.NewCorpus(cat)
	for i := 0; i < 2; i++ {
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("l%d.bib", i), 10, func(cfg *bibtex.Config) {
			cfg.Seed = int64(i)
		})
		if err := corpus.Add(doc, grammar.IndexSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := corpus.Execute(xsql.MustParse(`SELECT r.Key FROM References r`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Projected || len(res.AllStrings()) != 20 {
		t.Fatalf("projection: %d strings", len(res.AllStrings()))
	}
}

// TestCorpusAddAll checks that the parallel bulk build produces a corpus
// identical to sequential Adds: same order, same per-file results.
func TestCorpusAddAll(t *testing.T) {
	cat := bibtex.Catalog()
	var docs []*text.Document
	seq := engine.NewCorpus(cat)
	for i := 0; i < 6; i++ {
		mut := func(cfg *bibtex.Config) {
			cfg.Seed = int64(i)
			cfg.TargetAuthorShare = 0.3
		}
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("b%d.bib", i), 20, mut)
		docs = append(docs, doc)
		doc2, _ := testutil.BibDoc(t, fmt.Sprintf("b%d.bib", i), 20, mut)
		if err := seq.Add(doc2, grammar.IndexSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	bulk := engine.NewCorpus(cat)
	t.Cleanup(pool.SetHelpers(3))
	if err := bulk.AddAll(docs, grammar.IndexSpec{}); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != seq.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), seq.Len())
	}
	q := xsql.MustParse(changAuthorQuery)
	a, err := seq.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bulk.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Results() != b.Results() || len(a.Hits) != len(b.Hits) {
		t.Fatalf("sequential %d/%d vs bulk %d/%d",
			a.Results(), len(a.Hits), b.Results(), len(b.Hits))
	}
	for i := range a.Hits {
		if a.Hits[i].File != b.Hits[i].File || !a.Hits[i].Regions.Equal(b.Hits[i].Regions) {
			t.Errorf("hit %d differs (order or contents)", i)
		}
	}
}

// TestCorpusAddAllError checks that a bad document fails the whole bulk add
// and leaves the corpus unchanged.
func TestCorpusAddAllError(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	corpus := engine.NewCorpus(bibtex.Catalog())
	good, _ := testutil.BibDoc(t, "ok.bib", 5, nil)
	docs := []*text.Document{good, text.NewDocument("bad.bib", "not bibtex")}
	if err := corpus.AddAll(docs, grammar.IndexSpec{}); err == nil {
		t.Fatal("unparseable file accepted")
	}
	if corpus.Len() != 0 {
		t.Fatalf("failed AddAll left %d engines behind", corpus.Len())
	}
}

func TestCorpusAddError(t *testing.T) {
	corpus := engine.NewCorpus(bibtex.Catalog())
	err := corpus.Add(text.NewDocument("bad.bib", "not bibtex"), grammar.IndexSpec{})
	if err == nil {
		t.Fatal("unparseable file accepted")
	}
}

func TestCorpusParallel(t *testing.T) {
	cat := bibtex.Catalog()
	seq := engine.NewCorpus(cat)
	par := engine.NewCorpus(cat)
	for i := 0; i < 6; i++ {
		mut := func(cfg *bibtex.Config) {
			cfg.Seed = int64(i)
			cfg.TargetAuthorShare = 0.3
		}
		doc, _ := testutil.BibDoc(t, fmt.Sprintf("p%d.bib", i), 20, mut)
		doc2, _ := testutil.BibDoc(t, fmt.Sprintf("p%d.bib", i), 20, mut)
		if err := seq.Add(doc, grammar.IndexSpec{}); err != nil {
			t.Fatal(err)
		}
		if err := par.Add(doc2, grammar.IndexSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	q := xsql.MustParse(changAuthorQuery)
	t.Cleanup(pool.SetHelpers(0))
	a, err := seq.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.SetHelpers(3))
	b, err := par.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Results() != b.Results() || len(a.Hits) != len(b.Hits) {
		t.Fatalf("sequential %d/%d vs parallel %d/%d",
			a.Results(), len(a.Hits), b.Results(), len(b.Hits))
	}
	for i := range a.Hits {
		if a.Hits[i].File != b.Hits[i].File || !a.Hits[i].Regions.Equal(b.Hits[i].Regions) {
			t.Errorf("hit %d differs", i)
		}
	}
}

// TestCorpusFanOutBound: a 16-file corpus runs its files on the caller's
// goroutine and on the process's helpers, never more than the budget at
// once and never on a goroutine of its own, and answers as the sequential
// corpus does.
func TestCorpusFanOutBound(t *testing.T) {
	defer faultinject.Reset()
	t.Cleanup(pool.SetHelpers(0))
	cat := testutil.NewBibFixture(t, 1, grammar.IndexSpec{}, nil).Cat
	c := engine.NewCorpus(cat)
	if err := c.AddAll(testutil.BibCorpusDocs(t, 16, 30), grammar.IndexSpec{}); err != nil {
		t.Fatal(err)
	}
	q := xsql.MustParse(changAuthorQuery)
	want, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.SetHelpers(3))
	// Every file stalls a little, so the helpers overlap.
	if err := faultinject.Configure("corpus.file=delay:2ms"); err != nil {
		t.Fatal(err)
	}
	probe := testutil.NewGoroutineProbe()
	base := runtime.NumGoroutine()
	got, err := c.ExecuteContext(probe, q, engine.ExecOptions{})
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

// TestCorpusReindexKeepsUnchanged: Reindex builds exactly the documents
// that are new or changed, or whose spec changed, and hands every other one
// the old corpus's engine; the old corpus is untouched.
func TestCorpusReindexKeepsUnchanged(t *testing.T) {
	cat := bibtex.Catalog()
	docs := testutil.BibCorpusDocs(t, 4, 20)
	old := engine.NewCorpus(cat)
	if err := old.AddAll(docs[:3], grammar.IndexSpec{}); err != nil {
		t.Fatal(err)
	}
	was := engine.Engines(old)
	edited := text.NewDocument(docs[1].Name(), docs[1].Content()+"\n")
	next := []*text.Document{docs[0], edited, docs[3]} // docs[2] dropped, docs[3] new
	c, built, err := old.Reindex(t.Context(), next, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	now := engine.Engines(c)
	if built != 2 || len(now) != 3 {
		t.Fatalf("built %d, %d files; want 2, 3", built, len(now))
	}
	if now[0] != was[0] || now[1] == was[1] {
		t.Error("Reindex did not keep exactly the unchanged file's engine")
	}
	for i, e := range now {
		if got := e.Instance().Document(); got.Name() != next[i].Name() || got.Content() != next[i].Content() {
			t.Errorf("file %d is %s, want %s", i, got.Name(), next[i].Name())
		}
	}
	if old.Len() != 3 || engine.Engines(old)[1] != was[1] {
		t.Error("Reindex changed the corpus it was called on")
	}
	if _, built, err := c.Reindex(t.Context(), next, grammar.IndexSpec{Names: []string{"Reference", "Key"}}); err != nil || built != 3 {
		t.Errorf("Reindex under another spec built %d files (%v), want all 3", built, err)
	}
}
