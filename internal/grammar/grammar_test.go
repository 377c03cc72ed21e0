package grammar

import (
	"strings"
	"testing"

	"qof/internal/db"
	"qof/internal/testutil/nesting"
	"qof/internal/text"
)

// miniBibtex builds a compact BIBTEX structuring schema mirroring the
// paper's example (Section 4.1).
func miniBibtex(t testing.TB) *Grammar {
	t.Helper()
	g := miniBibtexUnvalidated()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

// miniBibtexUnvalidated is the grammar as a schema author leaves it when
// they rely on the parser validating on first use.
func miniBibtexUnvalidated() *Grammar {
	g := NewGrammar("Ref_Set")
	g.MustAddTerminal("Ident", `[A-Za-z][A-Za-z0-9]*`)
	g.MustAddTerminal("Initials", `[A-Z]\.(?: [A-Z]\.)*`)
	g.MustAddTerminal("Word", `[A-Za-z][A-Za-z0-9'-]*`)
	g.MustAddTerminal("Text", `[^"]*`)
	g.MustAddTerminal("Num", `[0-9]+`)

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
	return g
}

const miniDoc = `@INCOLLECTION{Corl82a,
AUTHOR = "G. F. Corliss and Y. F. Chang",
TITLE = "Solving Ordinary Differential Equations",
YEAR = "1982",
EDITOR = "A. Griewank",
}
@INCOLLECTION{Grie89b,
AUTHOR = "A. Griewank",
TITLE = "On Automatic Differentiation",
YEAR = "1989",
EDITOR = "Y. F. Chang",
}
`

func parseMini(t testing.TB) (*Grammar, *text.Document, *Node) {
	t.Helper()
	g := miniBibtex(t)
	doc := text.NewDocument("mini.bib", miniDoc)
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return g, doc, tree
}

func TestParseTreeShape(t *testing.T) {
	_, doc, tree := parseMini(t)
	if tree.Sym != "Ref_Set" {
		t.Fatalf("root = %q", tree.Sym)
	}
	refs := tree.Find("Reference")
	if len(refs) != 2 {
		t.Fatalf("references = %d", len(refs))
	}
	// First reference has two author names, one editor name.
	authors := refs[0].Find("Authors")
	if len(authors) != 1 {
		t.Fatalf("authors nodes = %d", len(authors))
	}
	names := authors[0].Find("Name")
	if len(names) != 2 {
		t.Fatalf("author names = %d", len(names))
	}
	if got := names[1].Find("Last_Name")[0].Text(doc.Content()); got != "Chang" {
		t.Errorf("second author last name = %q", got)
	}
	// Node spans nest strictly.
	ref := refs[0]
	au := authors[0]
	if !(ref.Start < au.Start && au.End < ref.End) {
		t.Errorf("Reference [%d,%d) vs Authors [%d,%d)", ref.Start, ref.End, au.Start, au.End)
	}
	nm := names[0]
	if !(au.Start < nm.Start && nm.End < au.End) {
		t.Errorf("Authors [%d,%d) vs Name [%d,%d)", au.Start, au.End, nm.Start, nm.End)
	}
	if tree.Count() < 20 {
		t.Errorf("Count = %d", tree.Count())
	}
}

func TestDumpFigure(t *testing.T) {
	_, doc, tree := parseMini(t)
	dump := tree.Dump(doc.Content())
	for _, want := range []string{"Ref_Set", "Reference", "Authors", "Name", "Last_Name", `"Chang"`} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
	// Indentation reflects nesting: Name under Authors.
	lines := strings.Split(dump, "\n")
	var authorIndent, nameIndent int
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		switch {
		case strings.HasPrefix(trimmed, "Authors"):
			authorIndent = len(l) - len(trimmed)
		case strings.HasPrefix(trimmed, "Name") && nameIndent == 0:
			nameIndent = len(l) - len(trimmed)
		}
	}
	if nameIndent <= authorIndent {
		t.Errorf("indents: Authors %d, Name %d", authorIndent, nameIndent)
	}
}

func TestNaturalValue(t *testing.T) {
	_, doc, tree := parseMini(t)
	v := BuildValue(tree, doc.Content())
	// Root: tuple{Reference: set(...)}.
	root, ok := v.(*db.Tuple)
	if !ok {
		t.Fatalf("root value %T", v)
	}
	refsV, _ := root.Get("Reference")
	refs := refsV.(*db.Set)
	if refs.Len() != 2 {
		t.Fatalf("references = %d", refs.Len())
	}
	r0 := refs.Elems()[0].(*db.Tuple)
	if key, _ := r0.Get("Key"); key.(db.String) != "Corl82a" {
		t.Errorf("Key = %v", key)
	}
	if title, _ := r0.Get("Title"); title.(db.String) != "Solving Ordinary Differential Equations" {
		t.Errorf("Title = %v", title)
	}
	if year, _ := r0.Get("Year"); year.(db.String) != "1982" {
		t.Errorf("Year = %v", year)
	}
	// The paper's path: Authors.Name.Last_Name.
	lasts := db.NavigateStrings(r0, db.PathOf("Authors", "Name", "Last_Name"))
	if len(lasts) != 2 || lasts[0] != "Corliss" || lasts[1] != "Chang" {
		t.Errorf("author last names = %v", lasts)
	}
	firsts := db.NavigateStrings(r0, db.PathOf("Authors", "Name", "First_Name"))
	if len(firsts) != 2 || firsts[0] != "G. F." {
		t.Errorf("author first names = %v", firsts)
	}
	eds := db.NavigateStrings(r0, db.PathOf("Editors", "Name", "Last_Name"))
	if len(eds) != 1 || eds[0] != "Griewank" {
		t.Errorf("editors = %v", eds)
	}
}

// TestBuildValueHandBuiltTree: BuildValue is exported and takes any tree. A
// node without a production is a tuple of its non-terminal children (a
// repeated symbol accumulates into a set), and a production no Validate has
// seen still gives its repetition children set semantics — one element, or
// none, included.
func TestBuildValueHandBuiltTree(t *testing.T) {
	src := "ab"
	leaf := func(sym string, from, to int) *Node {
		return &Node{Sym: sym, Start: from, End: to,
			Kids: []*Node{{Sym: "W", Term: true, Start: from, End: to}}}
	}
	bare := &Node{Sym: "P", Start: 0, End: 2,
		Kids: []*Node{leaf("X", 0, 1), leaf("Y", 1, 2), leaf("X", 1, 2)}}
	if got, want := BuildValue(bare, src).String(), `tuple(X: {"a", "b"}, Y: "b")`; got != want {
		t.Errorf("node without a production: %s, want %s", got, want)
	}

	prod := &Production{LHS: "P", RHS: []Elem{Rep("X", ""), Lit(";"), Rep("Y", "")}}
	one := &Node{Sym: "P", Prod: prod, Start: 0, End: 1, Kids: []*Node{leaf("X", 0, 1)}}
	if got, want := BuildValue(one, src).String(), `tuple(X: {"a"}, Y: {})`; got != want {
		t.Errorf("production never validated: %s, want %s", got, want)
	}
}

func TestCustomAction(t *testing.T) {
	g := NewGrammar("S")
	g.MustAddTerminal("Num", `[0-9]+`)
	p := g.AddProduction("S", Lit("["), Term("Num"), Lit(":"), Term("Num"), Lit("]"))
	p.Action = func(kids []db.Value, matched string) db.Value {
		return db.NewTuple(0).Put("lo", kids[0]).Put("hi", kids[1])
	}
	doc := text.NewDocument("d", "[3:42]")
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	v := BuildValue(tree, doc.Content()).(*db.Tuple)
	if lo, _ := v.Get("lo"); lo.(db.String) != "3" {
		t.Errorf("lo = %v", lo)
	}
	if hi, _ := v.Get("hi"); hi.(db.String) != "42" {
		t.Errorf("hi = %v", hi)
	}
}

func TestCustomActionWithRepetition(t *testing.T) {
	// $-style positional children: a repetition contributes one set value.
	g := NewGrammar("List")
	g.MustAddTerminal("W", `[a-z]+`)
	p := g.AddProduction("List", Lit("("), Term("W"), Lit(":"), Rep("Item", ","), Lit(")"))
	p.Action = func(kids []db.Value, matched string) db.Value {
		return db.NewTuple(0).Put("head", kids[0]).Put("items", kids[1])
	}
	g.AddProduction("Item", Lit("<"), Term("W"), Lit(">"))
	doc := text.NewDocument("d", "(label: <a>, <b>, <c>)")
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	v := BuildValue(tree, doc.Content()).(*db.Tuple)
	if head, _ := v.Get("head"); head.(db.String) != "label" {
		t.Errorf("head = %v", head)
	}
	items, _ := v.Get("items")
	if items.(*db.Set).Len() != 3 {
		t.Errorf("items = %v", items)
	}
	// Zero repetitions still produce an (empty) set.
	doc2 := text.NewDocument("d", "(label: )")
	tree2, err := g.Parse(doc2)
	if err != nil {
		t.Fatal(err)
	}
	v2 := BuildValue(tree2, doc2.Content()).(*db.Tuple)
	items2, _ := v2.Get("items")
	if items2.(*db.Set).Len() != 0 {
		t.Errorf("empty items = %v", items2)
	}
}

func TestNaturalValueMultiTerminal(t *testing.T) {
	// A production with several terminals and no non-terminals
	// concatenates the matched texts.
	g := NewGrammar("Pair")
	g.MustAddTerminal("N", `[0-9]+`)
	g.AddProduction("Pair", Term("N"), Lit("-"), Term("N"))
	doc := text.NewDocument("d", "114-144")
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := BuildValue(tree, doc.Content()).(db.String); got != "114144" {
		t.Errorf("value = %q", got)
	}
}

func TestDeriveRIG(t *testing.T) {
	g := miniBibtex(t)
	graph := g.DeriveRIG()
	wantEdges := [][2]string{
		{"Ref_Set", "Reference"},
		{"Reference", "Key"}, {"Reference", "Authors"}, {"Reference", "Title"},
		{"Reference", "Year"}, {"Reference", "Editors"},
		{"Authors", "Name"}, {"Editors", "Name"},
		{"Name", "First_Name"}, {"Name", "Last_Name"},
	}
	for _, e := range wantEdges {
		if !graph.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if graph.EdgeCount() != len(wantEdges) {
		t.Errorf("EdgeCount = %d, want %d:\n%s", graph.EdgeCount(), len(wantEdges), graph)
	}
	if graph.HasEdge("Title", "Last_Name") {
		t.Error("spurious edge")
	}
}

func TestBuildInstanceSatisfiesRIG(t *testing.T) {
	g := miniBibtex(t)
	doc := text.NewDocument("mini.bib", miniDoc)
	in, tree, err := g.BuildInstance(doc, IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if tree != nil {
		t.Fatal("BuildInstance handed out the tree it parsed: it is pruned to the spec")
	}
	// Full indexing: every non-terminal except the root.
	if in.Has("Ref_Set") {
		t.Error("root must not be indexed")
	}
	for _, n := range []string{"Reference", "Key", "Authors", "Title", "Year", "Editors", "Name", "First_Name", "Last_Name"} {
		if !in.Has(n) {
			t.Errorf("missing region index %q", n)
		}
	}
	if got := in.MustRegion("Reference").Len(); got != 2 {
		t.Errorf("Reference regions = %d", got)
	}
	if got := in.MustRegion("Name").Len(); got != 5 {
		t.Errorf("Name regions = %d", got)
	}
	if err := nesting.Check(in.Sets()); err != nil {
		t.Errorf("parse-tree regions must nest properly: %v", err)
	}
	if err := g.DeriveRIG().Satisfies(in); err != nil {
		t.Errorf("instance must satisfy derived RIG: %v", err)
	}
}

func TestPartialAndScopedIndexing(t *testing.T) {
	g := miniBibtex(t)
	doc := text.NewDocument("mini.bib", miniDoc)
	in, tree, err := g.BuildInstance(doc, IndexSpec{
		Names:  []string{"Reference", "Key", "Last_Name"},
		Scoped: []ScopedName{{Name: "Name", Within: "Authors"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Has("Authors") || in.Has("Title") {
		t.Error("partial index has extra names")
	}
	// All 5 last names are indexed, but only the 3 author names.
	if got := in.MustRegion("Last_Name").Len(); got != 5 {
		t.Errorf("Last_Name = %d", got)
	}
	if got := in.MustRegion("Name").Len(); got != 3 {
		t.Errorf("scoped Name = %d", got)
	}
	if tree != nil {
		t.Fatal("BuildInstance handed out the tree it parsed: it is pruned to the spec")
	}
	// Scoped extraction from the tree directly.
	if tree, err = g.Parse(doc); err != nil {
		t.Fatal(err)
	}
	if got := extractScopedRegions(tree, "Last_Name", "Editors").Len(); got != 2 {
		t.Errorf("editor last names = %d", got)
	}
	if got := extractScopedRegions(tree, "Last_Name", "Nope").Len(); got != 0 {
		t.Errorf("scoped within unknown = %d", got)
	}
}

func TestExtractRegionsExplicitNames(t *testing.T) {
	_, _, tree := parseMini(t)
	m := extractRegions(tree, "Reference", "Ghost")
	if m["Reference"].Len() != 2 {
		t.Errorf("Reference = %v", m["Reference"])
	}
	if got, ok := m["Ghost"]; !ok || !got.IsEmpty() {
		t.Errorf("Ghost = %v %v", got, ok)
	}
	if _, ok := m["Name"]; ok {
		t.Error("unrequested name extracted")
	}
}

func TestParseAsRegion(t *testing.T) {
	g, doc, tree := parseMini(t)
	ref := tree.Find("Reference")[1]
	sub, err := g.ParseAs(doc, "Reference", int32(ref.Start), int32(ref.End))
	if err != nil {
		t.Fatalf("ParseAs: %v", err)
	}
	if sub.Start != ref.Start || sub.End != ref.End {
		t.Errorf("span [%d,%d) vs [%d,%d)", sub.Start, sub.End, ref.Start, ref.End)
	}
	v := BuildValue(sub, doc.Content()).(*db.Tuple)
	if key, _ := v.Get("Key"); key.(db.String) != "Grie89b" {
		t.Errorf("Key = %v", key)
	}
	// Unknown symbol.
	if _, err := g.ParseAs(doc, "Nope", 0, int32(doc.Len())); err == nil {
		t.Error("unknown symbol accepted")
	}
}

func TestParseErrors(t *testing.T) {
	g := miniBibtex(t)
	// Truncated input.
	doc := text.NewDocument("bad.bib", `@INCOLLECTION{Corl82a, AUTHOR = "G. F. Corliss`)
	_, err := g.Parse(doc)
	if err == nil {
		t.Fatal("truncated input accepted")
	}
	perr, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Offset == 0 || !strings.Contains(perr.Error(), "bad.bib") {
		t.Errorf("error = %v", perr)
	}
	// Trailing garbage.
	doc2 := text.NewDocument("t.bib", miniDoc+"garbage")
	if _, err := g.Parse(doc2); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Empty input parses as zero references.
	doc3 := text.NewDocument("e.bib", "  \n ")
	tree, err := g.Parse(doc3)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if len(tree.Find("Reference")) != 0 {
		t.Error("phantom references")
	}
}

func TestValidateErrors(t *testing.T) {
	// Missing root.
	g := NewGrammar("S")
	if err := g.Validate(); err == nil {
		t.Error("missing root accepted")
	}
	// Undefined non-terminal reference.
	g2 := NewGrammar("S")
	g2.AddProduction("S", Lit("x"), NT("Missing"))
	if err := g2.Validate(); err == nil || !strings.Contains(err.Error(), "Missing") {
		t.Errorf("undefined NT: %v", err)
	}
	// Undefined terminal.
	g3 := NewGrammar("S")
	g3.AddProduction("S", Term("T"))
	if err := g3.Validate(); err == nil {
		t.Error("undefined terminal accepted")
	}
	// Duplicate non-terminal in one RHS.
	g4 := NewGrammar("S")
	g4.MustAddTerminal("N", `[0-9]+`)
	g4.AddProduction("S", Lit("a"), NT("A"), Lit("b"), NT("A"))
	g4.AddProduction("A", Term("N"))
	if err := g4.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate NT: %v", err)
	}
	// Unit production outside the root.
	g5 := NewGrammar("S")
	g5.MustAddTerminal("N", `[0-9]+`)
	g5.AddProduction("S", Lit("a"), NT("A"))
	g5.AddProduction("A", NT("B"))
	g5.AddProduction("B", Term("N"))
	if err := g5.Validate(); err == nil || !strings.Contains(err.Error(), "unit production") {
		t.Errorf("unit production: %v", err)
	}
	// Redefined terminal.
	g6 := NewGrammar("S")
	g6.MustAddTerminal("N", `[0-9]+`)
	if err := g6.AddTerminal("N", `x`); err == nil {
		t.Error("terminal redefinition accepted")
	}
	// Bad terminal pattern.
	if err := g6.AddTerminal("Bad", `[`); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestSkipSpaceOff(t *testing.T) {
	g := NewGrammar("S")
	g.MustAddTerminal("N", `[0-9]+`)
	g.AddProduction("S", Lit("a"), Term("N"))
	g.SkipSpace = false
	if _, err := g.Parse(text.NewDocument("d", "a 1")); err == nil {
		t.Error("space accepted with SkipSpace off")
	}
	if _, err := g.Parse(text.NewDocument("d", "a1")); err != nil {
		t.Errorf("exact match failed: %v", err)
	}
}

func TestAlternatives(t *testing.T) {
	g := NewGrammar("S")
	g.MustAddTerminal("N", `[0-9]+`)
	g.MustAddTerminal("W", `[a-z]+`)
	g.AddProduction("S", Lit("#"), Term("N"))
	g.AddProduction("S", Lit("#"), Term("W"))
	for _, input := range []string{"#42", "#abc"} {
		tree, err := g.Parse(text.NewDocument("d", input))
		if err != nil {
			t.Errorf("Parse(%q): %v", input, err)
			continue
		}
		if tree.End != len(input) {
			t.Errorf("Parse(%q) span end = %d", input, tree.End)
		}
	}
}

func TestProductionString(t *testing.T) {
	g := miniBibtex(t)
	s := g.Productions("Authors")[0].String()
	if !strings.Contains(s, "(Authors)") || !strings.Contains(s, "(Name)* sep") {
		t.Errorf("Production.String = %q", s)
	}
	if got := Rep("X", "").String(); got != "(X)*" {
		t.Errorf("Rep = %q", got)
	}
}
