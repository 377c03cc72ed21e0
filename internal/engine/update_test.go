package engine_test

import (
	"strings"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/region"
	"qof/internal/sgml"
	"qof/internal/testutil"
	"qof/internal/text"
	"qof/internal/xsql"
)

// editedReference is a replacement reference whose author is Chang.
const editedReference = `@INCOLLECTION{Edited01,
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

func TestReplaceRegionMatchesRebuild(t *testing.T) {
	for _, spec := range []grammar.IndexSpec{
		{},
		{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}},
		{
			Names:  []string{bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
		},
	} {
		f := testutil.NewBibFixture(t, 20, spec, nil)
		refs := f.In.MustRegion(bibtex.NTReference)
		target := refs.At(7)

		doc2, in2, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, target, editedReference)
		if err != nil {
			t.Fatalf("spec %v: ReplaceRegion: %v", spec, err)
		}
		// Ground truth: rebuild from scratch over the edited document.
		rebuilt, _, err := f.Cat.Grammar.BuildInstance(doc2, spec)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if got, want := in2.Names(), rebuilt.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("names: %v vs %v", got, want)
		}
		for _, name := range rebuilt.Names() {
			if !in2.MustRegion(name).Equal(rebuilt.MustRegion(name)) {
				t.Errorf("spec %v: spliced %q differs from rebuild:\n spliced %v\n rebuilt %v",
					spec, name, in2.MustRegion(name), rebuilt.MustRegion(name))
			}
			if in2.Scope(name) != rebuilt.Scope(name) {
				t.Errorf("scope %q: %q vs %q", name, in2.Scope(name), rebuilt.Scope(name))
			}
		}
		// Queries over the edited corpus see the new data.
		eng := engine.New(f.Cat, in2)
		res, err := eng.Execute(xsql.MustParse(`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range res.Strings {
			if s == "Edited01" {
				found = true
			}
		}
		if !found {
			t.Errorf("spec %v: edited reference not found: %v", spec, res.Strings)
		}
	}
}

func TestReplaceRegionNested(t *testing.T) {
	// Replace a deeply nested section: enclosing sections must stretch.
	content, _ := sgml.Generate(sgml.DefaultConfig(4, 2))
	cat := sgml.Catalog()
	doc := text.NewDocument("d.sgml", content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := algebra.NewEvaluator(in).Eval(algebra.MustParse(`innermost(Section)`))
	if err != nil {
		t.Fatal(err)
	}
	target := inner.At(inner.Len() / 2)
	replacement := `<sec><t>patched</t><p>fresh needle text</p><p>and more words here</p></sec>`
	doc2, in2, err := engine.ReplaceRegion(cat, in, sgml.NTSection, target, replacement)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _, err := cat.Grammar.BuildInstance(doc2, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rebuilt.Names() {
		if !in2.MustRegion(name).Equal(rebuilt.MustRegion(name)) {
			t.Errorf("spliced %q differs from rebuild", name)
		}
	}
	// The patched section is findable.
	eng := engine.New(cat, in2)
	res, err := eng.Execute(xsql.MustParse(`SELECT s.Title FROM Sections s WHERE s.Title = "patched"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strings) != 1 {
		t.Errorf("patched section: %v", res.Strings)
	}
}

func TestReplaceRegionErrors(t *testing.T) {
	f := testutil.NewBibFixture(t, 5, grammar.IndexSpec{}, nil)
	refs := f.In.MustRegion(bibtex.NTReference)
	// Replacement that does not parse.
	if _, _, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, refs.At(0), "garbage"); err == nil {
		t.Error("garbage replacement accepted")
	}
	// Not an indexed region.
	bogus := refs.At(0)
	bogus.Start++
	if _, _, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, bogus, editedReference); err == nil {
		t.Error("non-indexed region accepted")
	}
	// Unknown name.
	if _, _, err := engine.ReplaceRegion(f.Cat, f.In, "Nope", refs.At(0), editedReference); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestInsertAndDeleteMatchRebuild(t *testing.T) {
	f := testutil.NewBibFixture(t, 15, grammar.IndexSpec{}, nil)
	refs := f.In.MustRegion(bibtex.NTReference)

	// Insert a new reference after the 4th (newline-prefixed to keep the
	// layout tidy; whitespace is insignificant to the grammar).
	doc2, in2, err := engine.InsertAfter(f.Cat, f.In, bibtex.NTReference, refs.At(4), "\n"+editedReference)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _, err := f.Cat.Grammar.BuildInstance(doc2, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rebuilt.Names() {
		if !in2.MustRegion(name).Equal(rebuilt.MustRegion(name)) {
			t.Errorf("insert: spliced %q differs from rebuild", name)
		}
	}
	if got := in2.MustRegion(bibtex.NTReference).Len(); got != 16 {
		t.Fatalf("references after insert = %d", got)
	}
	// The new reference is queryable.
	res, err := engine.New(f.Cat, in2).Execute(xsql.MustParse(
		`SELECT r.Key FROM References r WHERE r.Key = "Edited01"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != 1 {
		t.Fatalf("inserted reference not found")
	}

	// Delete the 8th reference from the updated corpus.
	refs2 := in2.MustRegion(bibtex.NTReference)
	target := refs2.At(8)
	doc3, in3, err := engine.DeleteRegion(f.Cat, in2, bibtex.NTReference, target)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt3, _, err := f.Cat.Grammar.BuildInstance(doc3, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rebuilt3.Names() {
		if !in3.MustRegion(name).Equal(rebuilt3.MustRegion(name)) {
			t.Errorf("delete: spliced %q differs from rebuild", name)
		}
	}
	if got := in3.MustRegion(bibtex.NTReference).Len(); got != 15 {
		t.Fatalf("references after delete = %d", got)
	}
}

func TestInsertDeleteNestedSections(t *testing.T) {
	content, _ := sgml.Generate(sgml.DefaultConfig(3, 2))
	cat := sgml.Catalog()
	doc := text.NewDocument("d.sgml", content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	secs := in.MustRegion(sgml.NTSection)
	mid := secs.At(secs.Len() / 2)
	// Insert a sibling section right after a nested one: ancestors stretch.
	doc2, in2, err := engine.InsertAfter(cat, in, sgml.NTSection, mid,
		`<sec><t>inserted</t><p>fresh words</p></sec>`)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _, err := cat.Grammar.BuildInstance(doc2, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rebuilt.Names() {
		if !in2.MustRegion(name).Equal(rebuilt.MustRegion(name)) {
			t.Fatalf("insert nested: %q differs from rebuild", name)
		}
	}
	// Delete it again: back to a rebuild of the shrunk doc.
	var inserted region.Region
	for _, r := range in2.MustRegion(sgml.NTSection).Regions() {
		if doc2.Slice(int(r.Start), int(r.End)) == `<sec><t>inserted</t><p>fresh words</p></sec>` {
			inserted = r
		}
	}
	if inserted == (region.Region{}) {
		t.Fatal("inserted section not found")
	}
	doc3, in3, err := engine.DeleteRegion(cat, in2, sgml.NTSection, inserted)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt3, _, err := cat.Grammar.BuildInstance(doc3, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rebuilt3.Names() {
		if !in3.MustRegion(name).Equal(rebuilt3.MustRegion(name)) {
			t.Fatalf("delete nested: %q differs from rebuild", name)
		}
	}
}

func TestInsertDeleteErrors(t *testing.T) {
	f := testutil.NewBibFixture(t, 3, grammar.IndexSpec{}, nil)
	refs := f.In.MustRegion(bibtex.NTReference)
	if _, _, err := engine.InsertAfter(f.Cat, f.In, bibtex.NTReference, refs.At(0), "garbage"); err == nil {
		t.Error("garbage insertion accepted")
	}
	if _, _, err := engine.InsertAfter(f.Cat, f.In, "Nope", refs.At(0), editedReference); err == nil {
		t.Error("unknown name accepted")
	}
	bogus := refs.At(0)
	bogus.End--
	if _, _, err := engine.DeleteRegion(f.Cat, f.In, bibtex.NTReference, bogus); err == nil {
		t.Error("non-indexed region delete accepted")
	}
	if _, _, err := engine.DeleteRegion(f.Cat, f.In, "Nope", refs.At(0)); err == nil {
		t.Error("unknown name delete accepted")
	}
}
