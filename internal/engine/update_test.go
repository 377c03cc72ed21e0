package engine_test

import (
	"slices"
	"strings"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
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

// editorName picks, in f's instance of Name, a name inside an EDITOR field:
// whether it is one, only a build that indexes Editors can say.
func editorName(t *testing.T, f *testutil.BibFixture) region.Region {
	t.Helper()
	full, _, err := f.Cat.Grammar.BuildInstance(f.Doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	editors := full.MustRegion(bibtex.NTEditors)
	for _, r := range f.In.MustRegion(bibtex.NTName).Regions() {
		if !editors.Filter(func(e region.Region) bool { return e.Includes(r) }).IsEmpty() {
			return r
		}
	}
	t.Fatal("no editor name in the fixture")
	return region.Region{}
}

// assertRebuilt fails unless in, an edited instance built under spec, is
// the instance a build of its document yields: the same names, sets and
// scopes.
func assertRebuilt(t *testing.T, what string, cat *compile.Catalog, in *index.Instance, spec grammar.IndexSpec) {
	t.Helper()
	rebuilt, _, err := cat.Grammar.BuildInstance(in.Document(), spec)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", what, err)
	}
	if got, want := in.Names(), rebuilt.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s: names %v, rebuild has %v", what, got, want)
	}
	for _, name := range rebuilt.Names() {
		if got, want := in.MustRegion(name), rebuilt.MustRegion(name); !got.Equal(want) {
			t.Errorf("%s: spliced %q (%d regions) differs from rebuild (%d):\n spliced %v\n rebuilt %v",
				what, name, got.Len(), want.Len(), got, want)
		}
		if in.Scope(name) != rebuilt.Scope(name) {
			t.Errorf("%s: scope %q: %q vs %q", what, name, in.Scope(name), rebuilt.Scope(name))
		}
	}
}

func TestReplaceRegionMatchesRebuild(t *testing.T) {
	references := func(f *testutil.BibFixture) region.Region { return f.In.MustRegion(bibtex.NTReference).At(7) }
	for _, tc := range []struct {
		name    string
		refs    int
		spec    grammar.IndexSpec
		nt      string
		pick    func(*testutil.BibFixture) region.Region
		newText string
	}{
		{"full", 20, grammar.IndexSpec{}, bibtex.NTReference, references, editedReference},
		{"partial", 20, grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}},
			bibtex.NTReference, references, editedReference},
		{"scoped", 20, grammar.IndexSpec{
			Names:  []string{bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
		}, bibtex.NTReference, references, editedReference},
		// The scope is not indexed and may enclose the edited Name: the
		// re-extraction widens to the enclosing Reference, where the edited
		// Name's own Editors is seen.
		{"scope-unindexed-reference", 5, grammar.IndexSpec{
			Names:  []string{bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTName, Within: bibtex.NTEditors}},
		}, bibtex.NTName, func(f *testutil.BibFixture) region.Region { return f.In.MustRegion(bibtex.NTName).At(0) }, "Q. Zed"},
		// As above, with no indexed name to widen to but the root: the
		// Last_Name of an editor's Name stays in scope.
		{"scope-unindexed-document", 5, grammar.IndexSpec{
			Names:  []string{bibtex.NTName},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTEditors}},
		}, bibtex.NTName, func(f *testutil.BibFixture) region.Region { return editorName(t, f) }, "Q. Zed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := testutil.NewBibFixture(t, tc.refs, tc.spec, nil)
			in2, err := engine.ReplaceRegion(f.Cat, f.In, tc.nt, tc.pick(f), tc.newText)
			if err != nil {
				t.Fatalf("ReplaceRegion: %v", err)
			}
			assertRebuilt(t, "replace", f.Cat, in2, tc.spec)
			if tc.nt != bibtex.NTReference {
				return
			}
			// Queries over the edited corpus see the new data.
			res, err := engine.New(f.Cat, in2).Execute(xsql.MustParse(`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(res.Strings, "Edited01") {
				t.Errorf("edited reference not found: %v", res.Strings)
			}
		})
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
	in2, err := engine.ReplaceRegion(cat, in, sgml.NTSection, target, replacement)
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, "replace nested", cat, in2, grammar.IndexSpec{})
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
	if _, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, refs.At(0), "garbage"); err == nil {
		t.Error("garbage replacement accepted")
	}
	// Not an indexed region.
	bogus := refs.At(0)
	bogus.Start++
	if _, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, bogus, editedReference); err == nil {
		t.Error("non-indexed region accepted")
	}
	// Unknown name.
	if _, err := engine.ReplaceRegion(f.Cat, f.In, "Nope", refs.At(0), editedReference); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestInsertAndDeleteMatchRebuild(t *testing.T) {
	f := testutil.NewBibFixture(t, 15, grammar.IndexSpec{}, nil)
	refs := f.In.MustRegion(bibtex.NTReference)

	// Insert a new reference after the 4th (newline-prefixed to keep the
	// layout tidy; whitespace is insignificant to the grammar).
	in2, err := engine.InsertAfter(f.Cat, f.In, bibtex.NTReference, refs.At(4), "\n"+editedReference)
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, "insert", f.Cat, in2, grammar.IndexSpec{})
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
	in3, err := engine.DeleteRegion(f.Cat, in2, bibtex.NTReference, target)
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, "delete", f.Cat, in3, grammar.IndexSpec{})
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
	in2, err := engine.InsertAfter(cat, in, sgml.NTSection, mid,
		`<sec><t>inserted</t><p>fresh words</p></sec>`)
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, "insert nested", cat, in2, grammar.IndexSpec{})
	// Delete it again: back to a rebuild of the shrunk doc.
	var inserted region.Region
	for _, r := range in2.MustRegion(sgml.NTSection).Regions() {
		if in2.Document().Slice(int(r.Start), int(r.End)) == `<sec><t>inserted</t><p>fresh words</p></sec>` {
			inserted = r
		}
	}
	if inserted == (region.Region{}) {
		t.Fatal("inserted section not found")
	}
	in3, err := engine.DeleteRegion(cat, in2, sgml.NTSection, inserted)
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, "delete nested", cat, in3, grammar.IndexSpec{})
}

func TestInsertDeleteErrors(t *testing.T) {
	f := testutil.NewBibFixture(t, 3, grammar.IndexSpec{}, nil)
	refs := f.In.MustRegion(bibtex.NTReference)
	if _, err := engine.InsertAfter(f.Cat, f.In, bibtex.NTReference, refs.At(0), "garbage"); err == nil {
		t.Error("garbage insertion accepted")
	}
	if _, err := engine.InsertAfter(f.Cat, f.In, "Nope", refs.At(0), editedReference); err == nil {
		t.Error("unknown name accepted")
	}
	bogus := refs.At(0)
	bogus.End--
	if _, err := engine.DeleteRegion(f.Cat, f.In, bibtex.NTReference, bogus); err == nil {
		t.Error("non-indexed region delete accepted")
	}
	if _, err := engine.DeleteRegion(f.Cat, f.In, "Nope", refs.At(0)); err == nil {
		t.Error("unknown name delete accepted")
	}
}
