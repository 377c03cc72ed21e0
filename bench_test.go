package qof_test

// Repository-level benchmarks: one per experiment of EXPERIMENTS.md (E1–E10)
// plus micro-benchmarks of the core substrate operations. They reuse the
// experiment setups so a `go test -bench=.` run exercises exactly the
// workloads the qofbench tables report.

import (
	"fmt"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/experiments"
	"qof/internal/grammar"
	"qof/internal/scan"
	"qof/internal/text"
	"qof/internal/xsql"
)

const benchRefs = 1000

const changQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

func bibtexSetup(b *testing.B, spec grammar.IndexSpec) *experiments.BibtexSetup {
	b.Helper()
	s, err := experiments.NewBibtexSetup(benchRefs, spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- E1: index evaluation vs full scan vs grep ---

func BenchmarkE1IndexQuery(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	q := xsql.MustParse(changQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1FullScan(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	q := xsql.MustParse(changQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.FullScan(s.Cat, s.Doc, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Grep(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan.Grep(s.Doc, "Chang")
	}
}

// --- E2: unoptimized vs optimized inclusion expressions ---

func benchExpr(b *testing.B, src string, layered bool) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	ev := algebra.NewEvaluator(s.Instance)
	ev.UseLayeredDirect = layered
	e := algebra.MustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Original(b *testing.B) {
	benchExpr(b, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`, false)
}

func BenchmarkE2OriginalLayered(b *testing.B) {
	benchExpr(b, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`, true)
}

func BenchmarkE2Optimized(b *testing.B) {
	benchExpr(b, `Reference > Authors > contains(Last_Name, "Chang")`, false)
}

// --- E3: ⊃ vs ⊃d vs layered ⊃d over nesting depth ---

func benchSgmlExpr(b *testing.B, depth int, src string, layered bool) {
	s, err := experiments.NewSgmlSetup(depth, 2)
	if err != nil {
		b.Fatal(err)
	}
	ev := algebra.NewEvaluator(s.Instance)
	ev.UseLayeredDirect = layered
	e := algebra.MustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3PlainInclusion(b *testing.B) {
	for _, depth := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchSgmlExpr(b, depth, `Section > Section`, false)
		})
	}
}

func BenchmarkE3DirectInclusion(b *testing.B) {
	for _, depth := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchSgmlExpr(b, depth, `Section >d Section`, false)
		})
	}
}

func BenchmarkE3LayeredDirect(b *testing.B) {
	for _, depth := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchSgmlExpr(b, depth, `Section >d Section`, true)
		})
	}
}

// --- E4/E5: indexing choices ---

func benchQueryUnderSpec(b *testing.B, spec grammar.IndexSpec) {
	s := bibtexSetup(b, spec)
	q := xsql.MustParse(changQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4FullIndex(b *testing.B) { benchQueryUnderSpec(b, grammar.IndexSpec{}) }

func BenchmarkE4PartialIndex(b *testing.B) {
	benchQueryUnderSpec(b, grammar.IndexSpec{
		Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName},
	})
}

func BenchmarkE5Exact63(b *testing.B) {
	benchQueryUnderSpec(b, grammar.IndexSpec{
		Names: []string{bibtex.NTReference, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTLastName},
	})
}

// --- E6: path variables ---

func BenchmarkE6StarVariable(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Enumerated(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" OR r.Editors.Name.Last_Name = "Chang"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: value joins ---

func BenchmarkE7JoinIndexAssisted(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7JoinFullLoad(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.FullScan(s.Cat, s.Doc, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: index build cost along the indexing ladder ---

func BenchmarkE8IndexBuild(b *testing.B) {
	cfg := bibtex.DefaultConfig(benchRefs)
	content, _ := bibtex.Generate(cfg)
	doc := text.NewDocument("bench.bib", content)
	specs := map[string]grammar.IndexSpec{
		"root-only": {Names: []string{bibtex.NTReference}},
		"advisor":   {Names: []string{bibtex.NTReference, bibtex.NTAuthors, bibtex.NTLastName}},
		"full":      {},
	}
	for name, spec := range specs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.NewBibtexSetupFromDoc(doc, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: selective indexing ---

func BenchmarkE9GlobalLastName(b *testing.B) {
	benchQueryUnderSpec(b, grammar.IndexSpec{
		Names: []string{bibtex.NTReference, bibtex.NTLastName},
	})
}

func BenchmarkE9ScopedLastName(b *testing.B) {
	benchQueryUnderSpec(b, grammar.IndexSpec{
		Names:  []string{bibtex.NTReference},
		Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
	})
}

// --- E10: transitive closure ---

func BenchmarkE10ClosureLocate(b *testing.B) {
	s, err := experiments.NewSgmlSetup(7, 2)
	if err != nil {
		b.Fatal(err)
	}
	ev := algebra.NewEvaluator(s.Instance)
	e := algebra.MustParse(`Section > contains(Para, "needle")`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10ClosureTraverse(b *testing.B) {
	s, err := experiments.NewSgmlSetup(7, 2)
	if err != nil {
		b.Fatal(err)
	}
	q := xsql.MustParse(`SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "needle"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.FullScan(s.Cat, s.Doc, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- X1: incremental index maintenance ---

const benchEditedReference = `@INCOLLECTION{Edited01,
AUTHOR = "Y. F. Chang",
TITLE = "A Revised Entry",
BOOKTITLE = "Updates on Files",
YEAR = "1994",
EDITOR = "T. Milo",
PUBLISHER = "ACM Press",
PAGES = "1--12",
REFERRED = "",
KEYWORDS = "updates",
ABSTRACT = "an edited reference",
}`

func BenchmarkX1IncrementalUpdate(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	target := s.Instance.MustRegion(bibtex.NTReference).At(benchRefs / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.ReplaceRegion(s.Cat, s.Instance, bibtex.NTReference, target, benchEditedReference); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX1FullRebuild(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Cat.Grammar.BuildInstance(s.Doc, grammar.IndexSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- X2: concurrent query serving ---

// BenchmarkConcurrentExecute drives N client goroutines of mixed queries
// against one shared engine and reports queries/sec; the sweep over worker
// counts shows throughput scaling (compare the queries/s metric of
// workers1 vs workers4 — scaling requires GOMAXPROCS > 1).
func BenchmarkConcurrentExecute(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	queries := make([]*xsql.Query, len(experiments.ConcurrencyQueries))
	for i, src := range experiments.ConcurrencyQueries {
		queries[i] = xsql.MustParse(src)
	}
	for _, workers := range experiments.ConcurrencyWorkers {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ResetTimer()
			elapsed, err := experiments.ServeConcurrent(s.Engine, queries, workers, b.N)
			if err != nil {
				b.Fatal(err)
			}
			if sec := elapsed.Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "queries/s")
			}
		})
	}
}

// BenchmarkRepeatedQueryCache isolates the cross-query result cache: the
// same mixed workload against one engine with the cache disabled and one
// with it on. Both variants share the warm plan cache and parse identical
// candidates; the delta is phase-1 index evaluation served from cache.
func BenchmarkRepeatedQueryCache(b *testing.B) {
	queries := make([]*xsql.Query, len(experiments.ConcurrencyQueries))
	for i, src := range experiments.ConcurrencyQueries {
		queries[i] = xsql.MustParse(src)
	}
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			s := bibtexSetup(b, grammar.IndexSpec{})
			if !cached {
				s.Engine.DisableResultCache()
			}
			for _, q := range queries { // warm plan (and result) caches
				if _, err := s.Engine.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Engine.Execute(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkMicroIndexBuildFull(b *testing.B) {
	content, _ := bibtex.Generate(bibtex.DefaultConfig(benchRefs))
	doc := text.NewDocument("bench.bib", content)
	g := bibtex.Grammar()
	b.SetBytes(int64(doc.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.BuildInstance(doc, grammar.IndexSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroWordLookup(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	words := s.Instance.Words()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words.MatchPoints("Chang")
	}
}

func BenchmarkMicroPrefixLookup(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	words := s.Instance.Words()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words.PrefixMatchPoints("Cha")
	}
}

func BenchmarkMicroIncluding(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	refs := s.Instance.MustRegion(bibtex.NTReference)
	lasts := s.Instance.MustRegion(bibtex.NTLastName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs.Including(lasts)
	}
}

func BenchmarkMicroDirectIncluding(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	refs := s.Instance.MustRegion(bibtex.NTReference)
	authors := s.Instance.MustRegion(bibtex.NTAuthors)
	u := s.Instance.Universe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.DirectlyIncluding(refs, authors)
	}
}

func BenchmarkMicroOptimize(b *testing.B) {
	cat := bibtex.Catalog()
	in := bibtexSetup(b, grammar.IndexSpec{}).Instance
	q := xsql.MustParse(changQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Compile(q, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroParseCandidate(b *testing.B) {
	s := bibtexSetup(b, grammar.IndexSpec{})
	ref := s.Instance.MustRegion(bibtex.NTReference).At(0)
	g := s.Cat.Grammar
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ParseAs(s.Doc, bibtex.NTReference, ref.Start, ref.End); err != nil {
			b.Fatal(err)
		}
	}
}
