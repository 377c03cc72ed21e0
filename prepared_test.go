package qof_test

// Per-query fixed cost on the prepared path: what a repeat of a query text
// costs a File and a 16-file Corpus once the schema has it prepared — no
// parse, no normalized text, no compile, no discarded Explain rendering.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"qof"
	"qof/internal/bibtex"
)

// hotQuery is the head of the benchmark's hot_repeat pool: an exact plan
// that a LIMIT stops after ten spans, so the fixed cost per query is most of
// what it costs.
const hotQuery = `SELECT r FROM References r WHERE r.Abstract CONTAINS "system" LIMIT 10`

func hitFile(tb testing.TB, refs int) *qof.File {
	tb.Helper()
	content, _ := bibtex.Generate(bibtex.DefaultConfig(refs))
	f, err := qof.BibTeX().Index("hit.bib", content)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func hitCorpus(tb testing.TB, files, refs int) *qof.Corpus {
	tb.Helper()
	c := qof.BibTeX().NewCorpus()
	docs := make(map[string]string, files)
	for i := 0; i < files; i++ {
		cfg := bibtex.DefaultConfig(refs)
		cfg.Seed = int64(2000 + i)
		docs[fmt.Sprintf("hit%02d.bib", i)], _ = bibtex.Generate(cfg)
	}
	if err := c.AddAll(docs); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestPreparedHitAllocations pins the allocations of a plan-cache hit. The
// ceilings sit a little above what the paths take (30 for the file, 405 for
// the corpus); with a parse, a cache key per file and an eagerly rendered
// Explain on the path, the file took 92 and the corpus over 600, and
// rendering the candidate expression once per file for its result-cache key
// took the corpus 420.
func TestPreparedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	ctx := context.Background()
	f := hitFile(t, 200)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := f.QueryContext(ctx, hotQuery); err != nil {
			t.Fatal(err)
		}
	}); n > 40 {
		t.Errorf("File.QueryContext on a prepared query: %.0f allocations, ceiling 40", n)
	}
	c := hitCorpus(t, 16, 50)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := c.ExecuteContext(ctx, hotQuery); err != nil {
			t.Fatal(err)
		}
	}); n > 440 {
		t.Errorf("Corpus.ExecuteContext over 16 files on a prepared query: %.0f allocations, ceiling 440", n)
	}
}

func BenchmarkQueryContextHit(b *testing.B) {
	ctx := context.Background()
	f := hitFile(b, benchRefs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.QueryContext(ctx, hotQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusExecuteHit16(b *testing.B) {
	ctx := context.Background()
	c := hitCorpus(b, 16, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecuteContext(ctx, hotQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExplainOnDemand: Results renders its plan when asked, with the file's
// estimates, and the same text every time.
func TestExplainOnDemand(t *testing.T) {
	f := hitFile(t, 100)
	res, err := f.Query(hotQuery)
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explain()
	for _, line := range []string{
		"query: " + hotQuery + "\n",
		"work units (materializing)\n",
		"work units (streaming, stops at LIMIT 10)\n",
		"  exact: index computes the answer; no filtering needed\n",
	} {
		if !strings.Contains(exp, line) {
			t.Errorf("Explain lacks %q:\n%s", line, exp)
		}
	}
	if again := res.Explain(); again != exp {
		t.Errorf("Explain changed between calls:\n%s\n--\n%s", exp, again)
	}
	if (&qof.Results{}).Explain() != "" {
		t.Error("a zero Results explains something")
	}
}

// TestSchemaPrepare: Prepare refuses what Query would refuse, and a prepared
// text finds its plan on every file of the schema — the first execution on a
// second file compiles nothing.
func TestSchemaPrepare(t *testing.T) {
	schema := qof.BibTeX()
	if err := schema.Prepare(`SELECT r FROM`); err == nil {
		t.Error("Prepare accepted a malformed query")
	}
	if err := schema.Prepare(hotQuery); err != nil {
		t.Fatal(err)
	}
	content, _ := bibtex.Generate(bibtex.DefaultConfig(30))
	for i := 0; i < 2; i++ {
		f, err := schema.Index(fmt.Sprintf("f%d.bib", i), content)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Query(hotQuery)
		if err != nil {
			t.Fatal(err)
		}
		if want := i > 0; res.Stats.PlanCached != want {
			t.Errorf("file %d: PlanCached = %v, want %v (prepared, compiled by the first file)", i, res.Stats.PlanCached, want)
		}
	}
}
