package grammar_test

import (
	"context"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/text"
)

// The index build as one stage: parse under the spec's need, word index
// beside it, extraction, Define. The three specs are the shapes a build
// takes — the paper's partial index (most of the file recognised quietly),
// the full index (every non-terminal kept) and a selective one (the scoped
// extractor's walk). A setup_s regression in bench/ bisects to this, to
// index's BenchmarkWordIndexBuild, or to stats.

func buildCorpus(tb testing.TB, refs int) (*grammar.Grammar, *text.Document) {
	tb.Helper()
	src, _ := bibtex.Generate(bibtex.DefaultConfig(refs))
	return bibtex.Grammar(), text.NewDocument("build.bib", src)
}

func buildSpecs() map[string]grammar.IndexSpec {
	return map[string]grammar.IndexSpec{
		"partial": {Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}},
		"full":    {},
		"scoped": {
			Names:  []string{bibtex.NTReference, bibtex.NTAuthors},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
		},
	}
}

func BenchmarkBuildInstance(b *testing.B) {
	g, doc := buildCorpus(b, 2000)
	specs := buildSpecs()
	for _, name := range []string{"partial", "full", "scoped"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(doc.Len()))
			for i := 0; i < b.N; i++ {
				if _, _, err := g.BuildInstance(doc, specs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullScanRegions is a full scan's phase 1 at 20 000 references,
// one class's regions two ways: from the whole parse tree (tree: Parse, then
// ExtractRegions) and from Regions under the index need {Reference} (need),
// which builds the Reference nodes and the root and recognises the rest.
func BenchmarkFullScanRegions(b *testing.B) {
	g, doc := buildCorpus(b, 20000)
	for name, regions := range map[string]func() error{
		"tree": func() error {
			tree, err := g.Parse(doc)
			if err == nil {
				grammar.ExtractRegions(tree, bibtex.NTReference)
			}
			return err
		},
		"need": func() error {
			_, _, err := g.Regions(context.Background(), doc, grammar.IndexSpec{Names: []string{bibtex.NTReference}})
			return err
		},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(doc.Len()))
			for i := 0; i < b.N; i++ {
				if err := regions(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
