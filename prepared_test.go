package qof_test

// Per-query fixed cost on the prepared path: what a repeat of a query text
// costs a File and a 16-file Corpus once the schema has it prepared — no
// parse, no normalized text, no compile, no discarded Explain rendering.

import (
	"context"
	"fmt"
	"slices"
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

// rowsQuery is hot_repeat's cached whole-object select without a LIMIT: an
// exact plan whose repeat answers every row from the result cache, so what a
// row costs shows. At rowsRefs references it answers 214 rows (the
// benchmark's corpus seed gives 185).
const rowsQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

const rowsRefs = 20000

// cancelable is the context the benchmark and qofd pass: one whose Done is
// not nil, so every poll point really polls.
func cancelable(tb testing.TB) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	return ctx
}

// TestPreparedHitAllocations pins the allocations of a plan-cache hit under
// a cancelable context. The ceilings sit a little above what the paths take
// (7 for the file, 98 for the corpus). With a parse, a cache key per file and
// an eagerly rendered Explain on the path, the file took 92 and the corpus
// over 600; rendering the candidate expression once per file for its
// result-cache key took the corpus 420; copying a cached answer into the
// drain's candidates and growing each answer by append took the file 22 and
// the corpus 329. A cached answer of hundreds of rows allocates what the
// ten-row LIMIT does, within a constant: nothing is paid per row.
func TestPreparedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	ctx := cancelable(t)
	allocs := func(f *qof.File, src string) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := f.QueryContext(ctx, src); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := allocs(hitFile(t, 200), hotQuery); n > 10 {
		t.Errorf("File.QueryContext on a prepared query: %.0f allocations, ceiling 10", n)
	}
	big := hitFile(t, rowsRefs)
	if res, err := big.QueryContext(ctx, rowsQuery); err != nil || res.Len() < 100 {
		t.Fatalf("%s: %d rows (err %v), want over 100", rowsQuery, res.Len(), err)
	}
	if ten, rows := allocs(big, hotQuery), allocs(big, rowsQuery); rows > ten+3 {
		t.Errorf("a cached answer of hundreds of rows: %.0f allocations, the ten-row LIMIT %.0f; want at most 3 more", rows, ten)
	}
	c := hitCorpus(t, 16, 50)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := c.ExecuteContext(ctx, hotQuery); err != nil {
			t.Fatal(err)
		}
	}); n > 120 {
		t.Errorf("Corpus.ExecuteContext over 16 files on a prepared query: %.0f allocations, ceiling 120", n)
	}
}

// TestHitAnswersAreTheCallers: a repeat of a query answers from the result
// cache, and the Values and Spans it returns are the caller's own, so editing
// them leaves the next answer of the same query unchanged.
func TestHitAnswersAreTheCallers(t *testing.T) {
	ctx := cancelable(t)
	f := hitFile(t, 200)
	for _, src := range []string{
		hotQuery,
		`SELECT r.Key FROM References r WHERE r.Abstract CONTAINS "system"`,
		`SELECT r.Key FROM References r WHERE r.Abstract CONTAINS "system" LIMIT 10`,
	} {
		first, err := f.QueryContext(ctx, src)
		if err != nil || first.Len() == 0 {
			t.Fatalf("%s: %d results (err %v)", src, first.Len(), err)
		}
		for i := range 2 {
			res, err := f.QueryContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Values, first.Values) || !slices.Equal(res.Spans, first.Spans) {
				t.Fatalf("%s: repeat %d answers %v %v, the first %v %v", src, i, res.Values, res.Spans, first.Values, first.Spans)
			}
			for j := range res.Values {
				res.Values[j] = "edited"
			}
			for j := range res.Spans {
				res.Spans[j] = qof.Span{Start: -1, End: -1, Text: "edited"}
			}
		}
	}
	c := hitCorpus(t, 3, 50)
	for _, src := range []string{hotQuery, `SELECT r.Key FROM References r WHERE r.Abstract CONTAINS "system" LIMIT 10`} {
		first, err := c.ExecuteContext(ctx, src)
		if err != nil || len(first.Hits) == 0 {
			t.Fatalf("corpus: %s: %d hits (err %v)", src, len(first.Hits), err)
		}
		for i := range 2 {
			res, err := c.ExecuteContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(res.Hits, first.Hits, func(a, b qof.CorpusHit) bool {
				return a.File == b.File && slices.Equal(a.Spans, b.Spans) && slices.Equal(a.Values, b.Values)
			}) {
				t.Fatalf("corpus: %s: repeat %d answers %v, the first %v", src, i, res.Hits, first.Hits)
			}
			for _, h := range res.Hits {
				for j := range h.Spans {
					h.Spans[j] = qof.Span{Start: -1, End: -1}
				}
				for j := range h.Values {
					h.Values[j] = "edited"
				}
			}
		}
	}
}

func BenchmarkQueryContextHit(b *testing.B) {
	benchmarkHit(b, hitFile(b, benchRefs), hotQuery)
}

// BenchmarkQueryContextHitRows is the hit of a cached answer of hundreds of
// rows, so what a row costs shows beside BenchmarkQueryContextHit's ten.
func BenchmarkQueryContextHitRows(b *testing.B) {
	benchmarkHit(b, hitFile(b, rowsRefs), rowsQuery)
}

func benchmarkHit(b *testing.B, f *qof.File, src string) {
	ctx := cancelable(b)
	res, err := f.QueryContext(ctx, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.QueryContext(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Len()), "rows/op")
}

func BenchmarkCorpusExecuteHit16(b *testing.B) {
	ctx := cancelable(b)
	c := hitCorpus(b, 16, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecuteContext(ctx, hotQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExplainOnDemand: Results renders its plan when asked, the same text
// every time.
func TestExplainOnDemand(t *testing.T) {
	f := hitFile(t, 100)
	res, err := f.Query(hotQuery)
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explain()
	for _, line := range []string{
		"query: " + hotQuery + "\n",
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
