package grammar

import (
	"strings"
	"testing"

	"qof/internal/text"
)

// benchGrammar builds the mini-bibtex grammar, optionally forcing every
// terminal through the regexp engine (the ablation for the byte-scanner
// matcher compiler).
func benchGrammar(b *testing.B, forceRegexp bool) *Grammar {
	b.Helper()
	g := NewGrammar("Ref_Set")
	add := func(name, pattern string) {
		if forceRegexp {
			// A harmless group makes compileSimple reject the
			// pattern without changing the language.
			pattern = "(?:" + pattern + ")"
		}
		g.MustAddTerminal(name, pattern)
	}
	add("Ident", `[A-Za-z][A-Za-z0-9]*`)
	add("Initials", `[A-Z]\.(?: [A-Z]\.)*`)
	add("Word", `[A-Za-z][A-Za-z0-9'-]*`)
	add("Text", `[^"]*`)
	add("Num", `[0-9]+`)
	g.AddProduction("Ref_Set", Rep("Reference", ""))
	g.AddProduction("Reference",
		Lit("@INCOLLECTION{"), NT("Key"), Lit(","),
		Lit("AUTHOR ="), NT("Authors"), Lit(","),
		Lit("TITLE ="), NT("Title"), Lit(","),
		Lit("YEAR ="), NT("Year"), Lit(","),
		Lit("EDITOR ="), NT("Editors"), Lit(","),
		Lit("}"))
	g.AddProduction("Key", Term("Ident"))
	g.AddProduction("Authors", Lit(`"`), Rep("Name", "and"), Lit(`"`))
	g.AddProduction("Editors", Lit(`"`), Rep("Name", "and"), Lit(`"`))
	g.AddProduction("Name", NT("First_Name"), NT("Last_Name"))
	g.AddProduction("First_Name", Term("Initials"))
	g.AddProduction("Last_Name", Term("Word"))
	g.AddProduction("Title", Lit(`"`), Term("Text"), Lit(`"`))
	g.AddProduction("Year", Lit(`"`), Term("Num"), Lit(`"`))
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	return g
}

func benchParse(b *testing.B, forceRegexp bool) {
	g := benchGrammar(b, forceRegexp)
	doc := text.NewDocument("bench.bib", strings.Repeat(miniDoc, 200))
	b.SetBytes(int64(doc.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseCompiledMatchers and BenchmarkParseRegexpMatchers ablate the
// terminal matcher compiler: identical grammar and input, scanners vs the
// regexp engine.
func BenchmarkParseCompiledMatchers(b *testing.B) { benchParse(b, false) }

func BenchmarkParseRegexpMatchers(b *testing.B) { benchParse(b, true) }

func BenchmarkBuildValue(b *testing.B) {
	g := benchGrammar(b, false)
	doc := text.NewDocument("bench.bib", strings.Repeat(miniDoc, 200))
	tree, err := g.Parse(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildValue(tree, doc.Content())
	}
}

// BenchmarkExtractRegions walks the whole tree of the mini corpus, taking
// every non-terminal (all) and the same ones asked for by name, as the full
// index spec does (named): a node costs one map probe either way.
func BenchmarkExtractRegions(b *testing.B) {
	g := benchGrammar(b, false)
	doc := text.NewDocument("bench.bib", strings.Repeat(miniDoc, 200))
	tree, err := g.Parse(doc)
	if err != nil {
		b.Fatal(err)
	}
	for name, names := range map[string][]string{"all": nil, "named": g.NonTerminals()} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				extractRegions(tree, names...)
			}
		})
	}
}

func BenchmarkParseAsOneReference(b *testing.B) {
	g := benchGrammar(b, false)
	doc := text.NewDocument("bench.bib", strings.Repeat(miniDoc, 200))
	tree, err := g.Parse(doc)
	if err != nil {
		b.Fatal(err)
	}
	ref := tree.Find("Reference")[10]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ParseAs(doc, "Reference", int32(ref.Start), int32(ref.End)); err != nil {
			b.Fatal(err)
		}
	}
}
