package grammar_test

import (
	"testing"

	"qof/internal/bibtex"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/text"
)

// The stages of phase 2's per-candidate cost inside this package, one
// benchmark each, over the paper's Figure 1 entry as the candidate region:
// parse it (a tree the caller keeps), build the value of a parsed tree, and
// both at once on the pooled runner as the engine does. A regression in
// the engine's phase 2 bisects to one of them, or to xsql's
// BenchmarkEvalCondContains.

func sampleReference(tb testing.TB) (*grammar.Grammar, *text.Document, *grammar.Node) {
	tb.Helper()
	g := bibtex.Grammar()
	doc := text.NewDocument("sample.bib", bibtex.SampleEntry)
	tree, err := g.Parse(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return g, doc, tree.Find(bibtex.NTReference)[0]
}

var (
	sinkNode  *grammar.Node
	sinkValue db.Value
)

func BenchmarkParseAsReference(b *testing.B) {
	g, doc, ref := sampleReference(b)
	b.ReportAllocs()
	b.SetBytes(int64(ref.End - ref.Start))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := g.ParseAs(doc, bibtex.NTReference, int32(ref.Start), int32(ref.End))
		if err != nil {
			b.Fatal(err)
		}
		sinkNode = n
	}
}

func BenchmarkBuildValueReference(b *testing.B) {
	_, doc, ref := sampleReference(b)
	b.ReportAllocs()
	b.SetBytes(int64(ref.End - ref.Start))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkValue = grammar.BuildValue(ref, doc.Content())
	}
}

func BenchmarkParseValueReference(b *testing.B) {
	g, doc, ref := sampleReference(b)
	b.ReportAllocs()
	b.SetBytes(int64(ref.End - ref.Start))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := g.ParseValue(doc, bibtex.NTReference, ref.Start, ref.End, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkValue = v
	}
}

// readingCases are the read sets of the benchmark's phase-2 queries —
// `Abstract CONTAINS w` selecting r, `Keywords CONTAINS w` selecting
// r.Title — and the whole value, compiled the way a plan compiles them.
func readingCases(tb testing.TB, g *grammar.Grammar) []struct {
	name  string
	reads *grammar.ReadSet
} {
	tb.Helper()
	compile := func(paths ...[]db.Step) *grammar.ReadSet {
		rs, err := g.CompileReads(bibtex.NTReference, paths)
		if err != nil {
			tb.Fatal(err)
		}
		return rs
	}
	return []struct {
		name  string
		reads *grammar.ReadSet
	}{
		{"abstract", compile(db.PathOf(bibtex.NTAbstract))},
		{"keywords+title", compile(db.PathOf(bibtex.NTKeywords), db.PathOf(bibtex.NTTitle))},
		{"everything", nil},
	}
}

// BenchmarkParseValueReading is BenchmarkParseValueReference under a read
// set: what a candidate costs when the plan names what it reads.
func BenchmarkParseValueReading(b *testing.B) {
	g, doc, ref := sampleReference(b)
	for _, c := range readingCases(b, g) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(ref.End - ref.Start))
			for i := 0; i < b.N; i++ {
				v, err := g.ParseValue(doc, bibtex.NTReference, ref.Start, ref.End, c.reads)
				if err != nil {
					b.Fatal(err)
				}
				sinkValue = v
			}
		})
	}
}
