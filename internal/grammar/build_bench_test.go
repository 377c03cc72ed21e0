package grammar_test

import (
	"context"
	"runtime"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/text"
)

// The index build as one stage: parse under the spec's need, word index
// beside it, extraction, index.New. The three specs are the shapes a build
// takes — the paper's partial index (most of the file recognised quietly),
// the full index (every non-terminal kept) and a selective one (the scoped
// extractor's walk). A setup_s regression in bench/ bisects to this, to
// index's BenchmarkWordIndexBuild, or to stats. Each spec also reports
// retained-B/region, what a built instance keeps per region beyond its
// word index (retainedPerRegion): a memory regression bisects the same way.

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
			perRegion := retainedPerRegion(b, g, doc, specs[name])
			b.ReportAllocs()
			b.SetBytes(int64(doc.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.BuildInstance(doc, specs[name]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perRegion, "retained-B/region")
		})
	}
}

// retainedPerRegion is the heap one built instance retains, less what the
// document's word index alone retains, over the instance's region count:
// the named sets' bytes per region, region.Bytes plus slack. Heap growth
// is read across each build with a collection on either side, as
// BenchmarkWordIndexBuild reads retained-B/token.
func retainedPerRegion(b *testing.B, g *grammar.Grammar, doc *text.Document, spec grammar.IndexSpec) float64 {
	b.Helper()
	// A first build fills the parser's pools, so neither measurement
	// counts them.
	if _, _, err := g.BuildInstance(doc, spec); err != nil {
		b.Fatal(err)
	}
	words := retained(func() any { return index.NewWordIndex(doc) })
	var in *index.Instance
	all := retained(func() any {
		var err error
		if in, _, err = g.BuildInstance(doc, spec); err != nil {
			b.Fatal(err)
		}
		return in
	})
	return (all - words) / float64(in.RegionCount())
}

// retained is the heap's growth across build, after a collection each
// side, with what build returned still live.
func retained(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
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
			_, _, err := g.Regions(context.Background(), doc, grammar.IndexSpec{Names: []string{bibtex.NTReference}}, g.Root(), 0, int32(doc.Len()))
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
