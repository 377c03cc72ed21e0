package qof_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qof"
	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/text"
)

func TestFacadeQuery(t *testing.T) {
	schema := qof.BibTeX()
	file, err := schema.Index("sample.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := file.Query(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || len(res.Spans) != 1 {
		t.Fatalf("results = %+v", res)
	}
	if !strings.Contains(res.Spans[0].Text, "Corl82a") {
		t.Errorf("span text = %q", res.Spans[0].Text[:40])
	}
	if !res.Stats.Exact || res.Stats.FullScan {
		t.Errorf("stats = %+v", res.Stats)
	}
	if !strings.Contains(res.Explain(), "Reference") {
		t.Error("Explain")
	}
	// Projection fills Values.
	proj, err := file.Query(`SELECT r.Key FROM References r`)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 1 || proj.Values[0] != "Corl82a" {
		t.Fatalf("projection = %+v", proj.Values)
	}
	// Bad query.
	if _, err := file.Query(`SELECT`); err == nil {
		t.Error("bad query accepted")
	}
}

func TestFacadeEval(t *testing.T) {
	file, err := qof.BibTeX().Index("sample.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := file.Eval(`equals(Last_Name, "Chang") < Authors`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Text != "Chang" {
		t.Fatalf("spans = %+v", spans)
	}
	if _, err := file.Eval(`>>>`); err == nil {
		t.Error("bad expression accepted")
	}
}

// TestDirectInclusionOfWordPoints: a word point directly includes the match
// point inside it, and the match point is directly included in the word
// point. Neither is an indexed region, and both evaluators answered ∅ while
// ⊃d and ⊂d knew containers only from the universe.
func TestDirectInclusionOfWordPoints(t *testing.T) {
	file, err := qof.BibTeX().Index("sample.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := bibtex.Grammar().BuildInstance(text.NewDocument("sample.bib", bibtex.SampleEntry), grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	ev, ref := algebra.NewEvaluator(in), refeval.New(in)
	for src, want := range map[string]region.Region{
		`word("Ordinary") >d match("rdin")`: {Start: 82, End: 90},
		`match("rdin") <d word("Ordinary")`: {Start: 83, End: 87},
	} {
		e := algebra.MustParse(src)
		oracle, err := ref.Eval(e)
		if err != nil || !oracle.Equal(region.FromRegions([]region.Region{want})) {
			t.Fatalf("%s: refeval %v (err %v), want {%v}", src, oracle, err, want)
		}
		if got, err := ev.Eval(e); err != nil || !got.Equal(oracle) {
			t.Errorf("%s: Eval %v (err %v), want %v", src, got, err, oracle)
		}
		if got, err := ev.StreamEval(context.Background(), e, nil, nil); err != nil || !got.Equal(oracle) {
			t.Errorf("%s: StreamEval %v (err %v), want %v", src, got, err, oracle)
		}
		spans, err := file.Eval(src)
		if err != nil || len(spans) != 1 || spans[0].Start != int(want.Start) || spans[0].End != int(want.End) {
			t.Errorf("%s: File.Eval %+v (err %v), want [%d,%d)", src, spans, err, want.Start, want.End)
		}
	}
}

func TestFacadePartialAndScoped(t *testing.T) {
	content := bibtex.SampleEntry
	file, err := qof.BibTeX().Index("s.bib", content,
		qof.WithRegions("Reference"),
		qof.WithScopedRegion("Last_Name", "Authors"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := file.Query(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("results = %d", res.Len())
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	schema := qof.BibTeX()
	file, err := schema.Index("s.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := file.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := schema.Load(&buf, "s.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Query(`SELECT r.Key FROM References r WHERE r CONTAINS "Chang"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("loaded query results = %d", res.Len())
	}
	if loaded.Name() != "s.bib" {
		t.Error("Name")
	}
}

// TestLoadRejectsAnotherSchemasIndex: an index names its schema's regions,
// so a BibTeX index loaded under the SGML schema, whose queries could only
// fail in the full-scan parse, is refused at load, whether a name or a
// scope is foreign (Title is a non-terminal of both schemas, Reference only
// of BibTeX's).
func TestLoadRejectsAnotherSchemasIndex(t *testing.T) {
	for name, opts := range map[string][]qof.IndexOption{
		"full":                   nil,
		"Title within Reference": {qof.WithScopedRegion(bibtex.NTTitle, bibtex.NTReference)},
	} {
		file, err := qof.BibTeX().Index("s.bib", bibtex.SampleEntry, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := file.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved := buf.Bytes()
		if _, err := qof.SGML().Load(bytes.NewReader(saved), "s.bib", bibtex.SampleEntry); !errors.Is(err, index.ErrIndexMismatch) {
			t.Errorf("%s BibTeX index loaded as SGML: err = %v, want index.ErrIndexMismatch", name, err)
		}
		if _, err := qof.BibTeX().Load(bytes.NewReader(saved), "s.bib", bibtex.SampleEntry); err != nil {
			t.Errorf("%s BibTeX index loaded as BibTeX: %v", name, err)
		}
	}
}

func TestFacadeReplace(t *testing.T) {
	file, err := qof.BibTeX().Index("s.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := file.Query(`SELECT r FROM References r`)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(bibtex.SampleEntry, "Corl82a", "Edited99", 1)
	edited = strings.TrimSuffix(edited, "\n")
	file2, err := file.Replace("Reference", res.Spans[0], edited)
	if err != nil {
		t.Fatal(err)
	}
	got, err := file2.Query(`SELECT r.Key FROM References r`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Values[0] != "Edited99" {
		t.Fatalf("after replace: %+v", got.Values)
	}
	// Original file unchanged.
	if !strings.Contains(file.Content(), "Corl82a") {
		t.Error("receiver mutated")
	}
}

// TestEditRejectsOutOfRangeSpan: a span 2³² bytes past a real region
// would narrow onto that region's 32-bit offsets. Every edit refuses it
// and leaves the file as it was; the real span still edits.
func TestEditRejectsOutOfRangeSpan(t *testing.T) {
	file, err := qof.BibTeX().Index("s.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := file.Eval("Key")
	if err != nil || len(keys) == 0 {
		t.Fatalf("Eval(Key) = %v, %v", keys, err)
	}
	far := keys[0]
	far.Start += 1 << 32
	far.End += 1 << 32
	before := file.Content()
	for name, edit := range map[string]func(qof.Span) (*qof.File, error){
		"Replace":     func(s qof.Span) (*qof.File, error) { return file.Replace("Key", s, "Edited99") },
		"InsertAfter": func(s qof.Span) (*qof.File, error) { return file.InsertAfter("Key", s, "Edited99") },
		"Delete":      func(s qof.Span) (*qof.File, error) { return file.Delete("Key", s) },
	} {
		if edited, err := edit(far); err == nil {
			t.Errorf("%s accepted span [%d,%d): file became %q", name, far.Start, far.End, edited.Content())
		}
		if file.Content() != before {
			t.Fatalf("%s changed the file", name)
		}
	}
	edited, err := file.Replace("Key", keys[0], "Edited99")
	if err != nil || !strings.Contains(edited.Content(), "Edited99") {
		t.Fatalf("Replace at the real span: %v", err)
	}
}

func TestFacadeCorpus(t *testing.T) {
	schema := qof.BibTeX()
	corpus := schema.NewCorpus()
	if err := corpus.Add("a.bib", bibtex.SampleEntry); err != nil {
		t.Fatal(err)
	}
	cfg := bibtex.DefaultConfig(5)
	gen, _ := bibtex.Generate(cfg)
	if err := corpus.Add("b.bib", gen); err != nil {
		t.Fatal(err)
	}
	hits, err := corpus.Query(`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].File != "a.bib" || hits[0].Values[0] != "Corl82a" {
		t.Fatalf("hits = %+v", hits)
	}

	// AddAll, building on the caller and on helpers, answers identically
	// (files sort by name).
	bulk := schema.NewCorpus()
	if err := bulk.AddAll(map[string]string{"a.bib": bibtex.SampleEntry, "b.bib": gen}); err != nil {
		t.Fatal(err)
	}
	bulkHits, err := bulk.Query(`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bulkHits) != 1 || bulkHits[0].File != "a.bib" || bulkHits[0].Values[0] != "Corl82a" {
		t.Fatalf("AddAll hits = %+v", bulkHits)
	}
}

func TestFacadeAdvise(t *testing.T) {
	names, report, err := qof.BibTeX().Advise(
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || !strings.Contains(report, "recommended") {
		t.Fatalf("advise: %v\n%s", names, report)
	}
	if _, _, err := qof.BibTeX().Advise(`SELECT`); err == nil {
		t.Error("bad query accepted")
	}
}

func TestFacadeRIG(t *testing.T) {
	if !strings.Contains(qof.BibTeX().RIG(), "Authors -> Name") {
		t.Error("RIG")
	}
}

func TestSchemaBuilder(t *testing.T) {
	b := qof.NewSchemaBuilder("Log")
	b.Terminal("Word", `[a-z]+`).
		Terminal("Num", `[0-9]+`).
		Rule("Log", qof.Rep("Line", "")).
		Rule("Line", qof.Lit("> "), qof.NT("Code"), qof.Lit(":"), qof.NT("Msg")).
		Rule("Code", qof.Term("Num")).
		Rule("Msg", qof.Term("Word")).
		BindClass("Lines", "Line")
	schema, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	file, err := schema.Index("x.log", "> 42: hello\n> 7: world\n> 42: again\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := file.Query(`SELECT l.Msg FROM Lines l WHERE l.Code = "42"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Values[0] != "hello" || res.Values[1] != "again" {
		t.Fatalf("results = %+v", res.Values)
	}
	// Builder error paths.
	if _, err := qof.NewSchemaBuilder("S").Terminal("T", `[`).Build(); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := qof.NewSchemaBuilder("S").Build(); err == nil {
		t.Error("empty grammar accepted")
	}
	// SkipWhitespace off.
	strict, err := qof.NewSchemaBuilder("S").
		Terminal("N", `[0-9]+`).
		Rule("S", qof.Lit("a"), qof.NT("V")).
		Rule("V", qof.Term("N")).
		SkipWhitespace(false).
		BindClass("Vs", "V").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Index("d", "a 1"); err == nil {
		t.Error("space accepted with skipping off")
	}
}

func TestFacadeInsertDelete(t *testing.T) {
	file, err := qof.BibTeX().Index("s.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := file.Query(`SELECT r FROM References r`)
	if err != nil {
		t.Fatal(err)
	}
	second := strings.Replace(bibtex.SampleEntry, "Corl82a", "Added01", 1)
	file2, err := file.InsertAfter("Reference", res.Spans[0], "\n"+strings.TrimSuffix(second, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := file2.Query(`SELECT r.Key FROM References r`)
	if err != nil {
		t.Fatal(err)
	}
	if keys.Len() != 2 || keys.Values[1] != "Added01" {
		t.Fatalf("after insert: %v", keys.Values)
	}
	// Delete the original.
	objs, err := file2.Query(`SELECT r FROM References r WHERE r.Key = "Corl82a"`)
	if err != nil {
		t.Fatal(err)
	}
	file3, err := file2.Delete("Reference", objs.Spans[0])
	if err != nil {
		t.Fatal(err)
	}
	left, err := file3.Query(`SELECT r.Key FROM References r`)
	if err != nil {
		t.Fatal(err)
	}
	if left.Len() != 1 || left.Values[0] != "Added01" {
		t.Fatalf("after delete: %v", left.Values)
	}
}

// TestFacadeConcurrentQueries shares one File and one Corpus among many
// goroutines (with three helpers to contend for) and checks every result
// against a sequential baseline. Run under -race it proves the public API
// is safe for concurrent readers.
func TestFacadeConcurrentQueries(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	content, _ := bibtex.Generate(bibtex.DefaultConfig(50))
	file, err := qof.BibTeX().Index("c.bib", content)
	if err != nil {
		t.Fatal(err)
	}
	corpus := qof.BibTeX().NewCorpus()
	if err := corpus.Add("a.bib", bibtex.SampleEntry); err != nil {
		t.Fatal(err)
	}
	if err := corpus.Add("c.bib", content); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
		`SELECT r.Key FROM References r`,
	}
	fileWant := make([]string, len(queries))
	corpusWant := make([]string, len(queries))
	for i, q := range queries {
		res, err := file.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		fileWant[i] = fmt.Sprintf("%v|%v", res.Spans, res.Values)
		hits, err := corpus.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		corpusWant[i] = fmt.Sprintf("%v", hits)
	}
	// Repeat queries must now be served from the plan cache.
	res, err := file.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCached {
		t.Error("repeat query should report Stats.PlanCached")
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for off := range queries {
					i := (w + r + off) % len(queries)
					res, err := file.Query(queries[i])
					if err != nil {
						errc <- err
						return
					}
					if got := fmt.Sprintf("%v|%v", res.Spans, res.Values); got != fileWant[i] {
						errc <- fmt.Errorf("file result diverged for %s", queries[i])
						return
					}
					hits, err := corpus.Query(queries[i])
					if err != nil {
						errc <- err
						return
					}
					if got := fmt.Sprintf("%v", hits); got != corpusWant[i] {
						errc <- fmt.Errorf("corpus result diverged for %s", queries[i])
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

// TestFileParallelByDefault: a File parses one query's candidates on its
// caller's goroutine and on the process's helpers — GOMAXPROCS−1 of them
// unless a test pins the budget — and answers identically with any budget.
// It starts no goroutine either way. CI runs it at -cpu 1,4.
func TestFileParallelByDefault(t *testing.T) {
	content, _ := bibtex.Generate(bibtex.DefaultConfig(200))
	// Indexed on Reference alone, every reference is a candidate of the
	// negation and is parsed.
	const q = `SELECT r.Key FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`
	want := ""
	for _, c := range []struct {
		name    string
		helpers int // pinned budget; −1 keeps the default
	}{
		{"default", -1},
		{"0 helpers", 0},
		{"3 helpers", 3},
	} {
		if c.helpers >= 0 {
			t.Cleanup(pool.SetHelpers(c.helpers))
		}
		file, err := qof.BibTeX().Index("p.bib", content, qof.WithRegions("Reference"))
		if err != nil {
			t.Fatal(err)
		}
		probe := testutil.NewGoroutineProbe()
		base := runtime.NumGoroutine()
		res, err := file.QueryContext(probe, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Parsed < 2 {
			t.Fatalf("%s: parsed %d candidates; nothing to hand a helper", c.name, res.Stats.Parsed)
		}
		if got := fmt.Sprint(res.Values, res.Stats); want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s: answer differs:\n got %s\nwant %s", c.name, got, want)
		}
		if helped, budget := probe.MaxBusy() > 0, pool.Size(); helped != (budget > 0) {
			t.Errorf("%s at GOMAXPROCS %d: helpers ran %v with a budget of %d", c.name, runtime.GOMAXPROCS(0), helped, budget)
		}
		if started := probe.Max() - base; started > 0 {
			t.Errorf("%s: %d goroutines started", c.name, started)
		}
	}
}
