package qof_test

// Repository-level micro-benchmarks of the core substrate operations on a
// 1 000-reference bibliography, and the result cache's benchmark. The
// paper's experiments are BenchmarkE1 … BenchmarkX2 (experiments_test.go).

import (
	"testing"

	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/region"
	"qof/internal/text"
	"qof/internal/xsql"
)

const benchRefs = 1000

// BenchmarkRepeatedQueryCache isolates the cross-query result cache: the
// same mixed workload against one engine with the cache disabled and one
// with it on. Both variants share the warm plan cache and parse identical
// candidates; the delta is phase-1 index evaluation served from cache.
func BenchmarkRepeatedQueryCache(b *testing.B) {
	queries := make([]*xsql.Query, len(x2Queries))
	for i, src := range x2Queries {
		queries[i] = xsql.MustParse(src)
	}
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			s := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0)
			if !cached {
				s.eng.DisableResultCache()
			}
			for _, q := range queries { // warm plan (and result) caches
				if _, err := s.eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.eng.Execute(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
	s := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0)
	words := s.in.Words()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words.MatchPoints("Chang")
	}
}

func BenchmarkMicroPrefixLookup(b *testing.B) {
	s := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0)
	words := s.in.Words()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words.PrefixMatchPoints("Cha")
	}
}

func BenchmarkMicroIncluding(b *testing.B) {
	s := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0)
	refs := s.in.MustRegion(bibtex.NTReference)
	lasts := s.in.MustRegion(bibtex.NTLastName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs.Including(lasts)
	}
}

func BenchmarkMicroDirectIncluding(b *testing.B) {
	s := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0)
	refs := s.in.MustRegion(bibtex.NTReference)
	authors := s.in.MustRegion(bibtex.NTAuthors)
	named := s.in.Sets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := region.DirectlyIncluding(refs, authors, named, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroOptimize(b *testing.B) {
	cat := bibtex.Catalog()
	in := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0).in
	q := xsql.MustParse(changQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Compile(q, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroParseCandidate(b *testing.B) {
	s := newBibtex(b, benchRefs, grammar.IndexSpec{}, 0)
	ref := s.in.MustRegion(bibtex.NTReference).At(0)
	g := s.cat.Grammar
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ParseAs(s.doc, bibtex.NTReference, ref.Start, ref.End); err != nil {
			b.Fatal(err)
		}
	}
}
