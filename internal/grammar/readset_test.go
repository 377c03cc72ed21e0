package grammar_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/qgen"
	"qof/internal/sgml"
	"qof/internal/text"
	"qof/internal/xsql"
)

// The read-set differential oracle: ParseValue with a nil read set is the
// full value (the one refparse_test.go ties to the reference parser), and a
// value pruned to a read set must answer every path of the set exactly as
// the full value does — db.Navigate, db.NavigateStrings, db.AnyString, in
// the same order — and fail on exactly the same regions with exactly the
// same error.

// checkReads compares the pruned parse of [from, to) with the full one on
// every path the read set was compiled from.
func checkReads(t *testing.T, g *grammar.Grammar, doc *text.Document, nt string, from, to int, paths [][]db.Step, reads *grammar.ReadSet) {
	t.Helper()
	where := fmt.Sprintf("%s as %s [%d,%d) reading %q", doc.Name(), nt, from, to, reads)
	full, ferr := g.ParseValue(doc, nt, from, to, nil)
	got, gerr := g.ParseValue(doc, nt, from, to, reads)
	if (ferr == nil) != (gerr == nil) {
		t.Fatalf("%s: full parse error %v, pruned parse error %v", where, ferr, gerr)
	}
	if ferr != nil {
		if !reflect.DeepEqual(ferr, gerr) || ferr.Error() != gerr.Error() {
			t.Fatalf("%s: errors differ:\n  full   %#v\n  pruned %#v", where, ferr, gerr)
		}
		return
	}
	for _, p := range paths {
		if w, v := db.Navigate(full, p), db.Navigate(got, p); !reflect.DeepEqual(w, v) {
			t.Fatalf("%s: Navigate %v reaches\n  %v in the pruned value\n  %v in the full value", where, p, v, w)
		}
		if w, v := db.NavigateStrings(full, p), db.NavigateStrings(got, p); !reflect.DeepEqual(w, v) {
			t.Fatalf("%s: NavigateStrings %v = %q pruned, %q full", where, p, v, w)
		}
		// AnyString stops at the first hit: the n-th leaf is the same leaf.
		for n := 0; n < 3; n++ {
			var seen [2][]string
			for i, val := range []db.Value{full, got} {
				db.AnyString(val, p, func(s string) bool {
					seen[i] = append(seen[i], s)
					return len(seen[i]) > n
				})
			}
			if !reflect.DeepEqual(seen[0], seen[1]) {
				t.Fatalf("%s: AnyString %v stopping after %d visits %q pruned, %q full", where, p, n+1, seen[1], seen[0])
			}
		}
	}
}

func compileReads(t *testing.T, g *grammar.Grammar, nt string, paths [][]db.Step) *grammar.ReadSet {
	t.Helper()
	rs, err := g.CompileReads(nt, paths)
	if err != nil {
		t.Fatalf("CompileReads(%s, %v): %v", nt, paths, err)
	}
	return rs
}

// queryPaths collects, per class non-terminal, every path qgen generates
// for it in n random queries: attribute chains along the RIG, ?X and *X
// segments, walks that leave the schema after a variable, paths of every
// length from the whole object to a leaf.
func queryPaths(d *qgen.Domain, seed int64, n int) map[string][][]db.Step {
	out := make(map[string][][]db.Step)
	gen := qgen.NewQueryGen(d, seed)
	for i := 0; i < n; i++ {
		q := gen.Query()
		add := func(p xsql.Path) {
			class, _ := q.ClassOf(p.Var)
			nt, _ := d.Cat.ClassNT(class)
			out[nt] = append(out[nt], p.Steps())
		}
		add(q.Select)
		for _, p := range xsql.CondPaths(q.Where) {
			add(p)
		}
	}
	return out
}

// TestReadSetMatchesFullValueOnCorpora: every qgen domain, every path shape
// qgen produces, alone and in random unions of two and three, over every
// region of the class non-terminal and over random sub-ranges, which mostly
// fail to parse.
func TestReadSetMatchesFullValueOnCorpora(t *testing.T) {
	shapes := map[string]int{}
	for _, seed := range []int64{1, 1994} {
		for _, d := range qgen.Domains(seed) {
			g, doc := d.Cat.Grammar, d.Doc
			tree, err := g.Parse(doc)
			if err != nil {
				t.Fatalf("%s: %v", doc.Name(), err)
			}
			rng := rand.New(rand.NewSource(seed))
			for nt, paths := range queryPaths(d, seed, 400) {
				regions := tree.Find(nt)
				if len(regions) == 0 {
					t.Fatalf("%s: no %s regions", doc.Name(), nt)
				}
				var sets [][][]db.Step
				for _, p := range paths {
					sets = append(sets, [][]db.Step{p})
					shapes[shapeOf(p)]++
				}
				for i := 0; i < 200; i++ {
					set := [][]db.Step{paths[rng.Intn(len(paths))], paths[rng.Intn(len(paths))]}
					if i%2 == 0 {
						set = append(set, paths[rng.Intn(len(paths))])
					}
					sets = append(sets, set)
				}
				for _, set := range sets {
					reads := compileReads(t, g, nt, set)
					// Three regions per set keeps the test quick; every
					// region is visited many times over the sets.
					for k := 0; k < 3; k++ {
						n := regions[rng.Intn(len(regions))]
						checkReads(t, g, doc, nt, n.Start, n.End, set, reads)
					}
					a := rng.Intn(doc.Len() + 1)
					b := a + rng.Intn(doc.Len()-a+1)
					checkReads(t, g, doc, nt, a, b, set, reads)
					n := regions[rng.Intn(len(regions))]
					checkReads(t, g, doc, nt, n.Start, n.End-1-rng.Intn(3), set, reads)
				}
			}
		}
	}
	for _, shape := range []string{"whole object", "attributes", "?X", "*X"} {
		if shapes[shape] < 20 {
			t.Errorf("only %d generated paths of shape %q; the comparison barely covers it", shapes[shape], shape)
		}
	}
}

func shapeOf(p []db.Step) string {
	shape := "attributes"
	if len(p) == 0 {
		shape = "whole object"
	}
	for _, s := range p {
		switch {
		case s.Star:
			return "*X"
		case s.Any:
			shape = "?X"
		}
	}
	return shape
}

// TestReadSetHandPickedShapes pins the shapes by name on the bibliography
// schema, the compiled trie included: paths ending on a leaf, on a tuple
// (Name), on a set (Authors' Name repetition), variables at every position,
// attributes the schema does not have.
func TestReadSetHandPickedShapes(t *testing.T) {
	g := bibtex.Grammar()
	doc := qgen.BibTeX(1994).Doc
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	refs := tree.Find(bibtex.NTReference)
	star, any := db.Step{Star: true}, db.Step{Any: true}
	attr := func(a string) db.Step { return db.Step{Attr: a} }
	for _, c := range []struct {
		paths [][]db.Step
		want  string // ReadSet.String()
	}{
		{[][]db.Step{db.PathOf("Abstract")}, "Abstract"},
		{[][]db.Step{db.PathOf("Keywords"), db.PathOf("Title")}, "Keywords,Title"},
		{[][]db.Step{db.PathOf("Title"), db.PathOf("Keywords")}, "Keywords,Title"},
		{[][]db.Step{db.PathOf("Authors", "Name", "Last_Name")}, "Authors.Name.Last_Name"},
		{[][]db.Step{db.PathOf("Authors", "Name")}, "Authors.Name"}, // ends on a set of tuples
		{[][]db.Step{db.PathOf("Authors")}, "Authors"},
		{[][]db.Step{db.PathOf("Authors", "Name", "Last_Name"), db.PathOf("Authors")}, "Authors"},
		{[][]db.Step{db.PathOf("Authors", "Name", "Last_Name"), db.PathOf("Editors", "Name", "First_Name")},
			"Authors.Name.Last_Name,Editors.Name.First_Name"},
		{[][]db.Step{{}}, "*"},
		{[][]db.Step{{star, attr("Last_Name")}}, "*"},
		{[][]db.Step{{attr("Authors"), star, attr("Last_Name")}}, "Authors"},
		{[][]db.Step{{any, attr("Name"), attr("Last_Name")}}, "Authors.Name.Last_Name,Editors.Name.Last_Name"},
		{[][]db.Step{{attr("Authors"), any, attr("Last_Name")}}, "Authors.Name.Last_Name"},
		{[][]db.Step{{attr("Authors"), attr("Name"), any}}, "Authors.Name.First_Name,Authors.Name.Last_Name"},
		{[][]db.Step{{any}}, "Abstract,Authors,Booktitle,Editors,Key,Keywords,Pages,Publisher,Referred,Title,Year"},
		{[][]db.Step{db.PathOf("Nope")}, ""},
		{[][]db.Step{db.PathOf("Abstract", "Nope")}, ""},
		{[][]db.Step{{attr("Abstract"), any}}, ""},
		{[][]db.Step{db.PathOf("Authors", "Last_Name"), db.PathOf("Year")}, "Year"},
		{nil, ""},
	} {
		reads := compileReads(t, g, bibtex.NTReference, c.paths)
		if got := reads.String(); got != c.want {
			t.Errorf("CompileReads(%v) = %q, want %q", c.paths, got, c.want)
		}
		if reads.Empty() != (c.want == "") || reads.Everything() != (c.want == "*") {
			t.Errorf("CompileReads(%v): Empty %v, Everything %v for %q", c.paths, reads.Empty(), reads.Everything(), c.want)
		}
		for _, n := range refs {
			checkReads(t, g, doc, bibtex.NTReference, n.Start, n.End, c.paths, reads)
		}
	}
	var nilSet *grammar.ReadSet
	if !nilSet.Everything() || nilSet.Empty() || nilSet.String() != "*" {
		t.Error("a nil read set is everything")
	}
	if _, err := g.CompileReads("Nope", nil); err == nil {
		t.Error("CompileReads accepted an unknown non-terminal")
	}
	reads := compileReads(t, g, bibtex.NTName, [][]db.Step{db.PathOf("Last_Name")})
	if _, err := g.ParseValue(doc, bibtex.NTReference, refs[0].Start, refs[0].End, reads); err == nil {
		t.Error("ParseValue accepted a read set compiled for another non-terminal")
	}
}

// TestReadSetBuildsOnlyWhatIsRead looks at the pruned value itself: the
// attributes read and no others, and nothing at all for an empty set. A
// repetition that matched nothing is present and empty on a read path where
// it is in the full value: beside another non-terminal child (a leaf
// Section's Title). A production whose only non-terminals are a repetition
// that matched nothing is a string in the full value — an empty Referred is
// "" — and under a path that goes on below it, a tuple with nothing to find.
func TestReadSetBuildsOnlyWhatIsRead(t *testing.T) {
	g := bibtex.Grammar()
	entry := strings.Replace(bibtex.SampleEntry, `"[Aber88a]; [Corl88a]; [Gupt85a]"`, `""`, 1)
	doc := text.NewDocument("empty-referred.bib", entry)
	parse := func(paths ...[]db.Step) db.Value {
		t.Helper()
		v, err := g.ParseValue(doc, bibtex.NTReference, 0, doc.Len(), compileReads(t, g, bibtex.NTReference, paths))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, c := range []struct {
		paths [][]db.Step
		want  string
	}{
		{[][]db.Step{db.PathOf("Year")}, `tuple(Year: "1982")`},
		{[][]db.Step{db.PathOf("Referred", "RefKey")}, `tuple(Referred: tuple())`},
		{[][]db.Step{db.PathOf("Referred")}, `tuple(Referred: "")`},
		{[][]db.Step{db.PathOf("Editors", "Name", "Last_Name"), db.PathOf("Key")},
			`tuple(Key: "Corl82a", Editors: tuple(Name: {tuple(Last_Name: "Griewank"), tuple(Last_Name: "Corliss")}))`},
		{[][]db.Step{db.PathOf("Nope")}, `tuple()`},
	} {
		if got := parse(c.paths...).String(); got != c.want {
			t.Errorf("reading %v built %s, want %s", c.paths, got, c.want)
		}
	}

	sg := sgml.Grammar()
	sdoc := text.NewDocument("leaf.sgml", "<sec><t>one</t><p>text</p></sec>")
	reads := compileReads(t, sg, sgml.NTSection, [][]db.Step{db.PathOf(sgml.NTSection, sgml.NTTitle)})
	v, err := sg.ParseValue(sdoc, sgml.NTSection, 0, sdoc.Len(), reads)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.String(), `tuple(Section: {})`; got != want {
		t.Errorf("a leaf section reading Section.Title built %s, want %s", got, want)
	}
}

// actionGrammar has what the bibliography schema lacks: an Action production
// (Pair, under Row and under List), alternatives of different shapes for
// one non-terminal (Cell), and a production whose natural value is a string
// or a tuple depending on whether its repetition matched (Tags).
func actionGrammar(t *testing.T) *grammar.Grammar {
	t.Helper()
	g := grammar.NewGrammar("Table")
	g.MustAddTerminal("W", `[a-z]+`)
	g.MustAddTerminal("N", `[0-9]+`)
	g.AddProduction("Table", grammar.Rep("Row", ";"))
	g.AddProduction("Row", grammar.Lit("["), grammar.NT("Pair"), grammar.NT("Cell"), grammar.NT("Tags"), grammar.NT("List"), grammar.Lit("]"))
	pair := g.AddProduction("Pair", grammar.Lit("<"), grammar.NT("Word"), grammar.Lit("="), grammar.NT("Num"), grammar.Lit(">"))
	pair.Action = func(kids []db.Value, matched string) db.Value {
		return db.NewTuple(3).Put("K", kids[0]).Put("V", kids[1]).Put("Src", db.String(matched))
	}
	g.AddProduction("Cell", grammar.Lit("("), grammar.NT("Word"), grammar.Lit(")"))
	g.AddProduction("Cell", grammar.Lit("("), grammar.NT("Num"), grammar.Lit(","), grammar.NT("Word"), grammar.Lit(")"))
	g.AddProduction("Tags", grammar.Term("W"), grammar.Lit(":"), grammar.Rep("Num", ","))
	g.AddProduction("List", grammar.Lit("{"), grammar.Rep("Pair", ","), grammar.Lit("}"))
	g.AddProduction("Word", grammar.Lit("'"), grammar.Term("W"))
	g.AddProduction("Num", grammar.Lit("#"), grammar.Term("N"))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReadSetActionAndMixedProductions: a path into an Action production
// reads its subtree whole, whatever the path goes on to say, because the
// action receives all child values and names its own attributes; a
// production off the read paths is not built even if it has an action.
func TestReadSetActionAndMixedProductions(t *testing.T) {
	g := actionGrammar(t)
	doc := text.NewDocument("table", "[<'a=#1> ('b) t:#1,#2 {<'x=#7>,<'y=#8>}] ; [<'c=#2> (#3,'d) u: {}]")
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tree.Find("Row")
	attr := func(a string) db.Step { return db.Step{Attr: a} }
	for _, c := range []struct {
		paths [][]db.Step
		want  string
	}{
		{[][]db.Step{db.PathOf("Pair", "K")}, "Pair"},
		{[][]db.Step{db.PathOf("Pair", "Word")}, "Pair"},
		{[][]db.Step{db.PathOf("List", "Pair", "V")}, "List.Pair"},
		{[][]db.Step{db.PathOf("Cell", "Word")}, "Cell.Word"},
		{[][]db.Step{db.PathOf("Cell", "Num")}, "Cell.Num"},
		{[][]db.Step{db.PathOf("Tags", "Num")}, "Tags.Num"},
		{[][]db.Step{{attr("Tags"), {Any: true}}}, "Tags.Num"},
		{[][]db.Step{db.PathOf("Tags")}, "Tags"},
		{[][]db.Step{{{Any: true}, attr("Num")}}, "Cell.Num,Pair,Tags.Num"},
	} {
		reads := compileReads(t, g, "Row", c.paths)
		if got := reads.String(); got != c.want {
			t.Errorf("CompileReads(%v) = %q, want %q", c.paths, got, c.want)
		}
		for _, n := range rows {
			checkReads(t, g, doc, "Row", n.Start, n.End, c.paths, reads)
		}
	}
	// The action ran on every child value, and only where it was read.
	second := rows[1]
	v, err := g.ParseValue(doc, "Row", second.Start, second.End, compileReads(t, g, "Row", [][]db.Step{db.PathOf("Pair", "V")}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.String(), `tuple(Pair: tuple(K: "c", V: "2", Src: "<'c=#2>"))`; got != want {
		t.Errorf("reading Pair.V built %s, want %s", got, want)
	}
	// Tags matched no Num: a string in the full value, and no Num to find
	// either way.
	v, err = g.ParseValue(doc, "Row", second.Start, second.End, compileReads(t, g, "Row", [][]db.Step{db.PathOf("Tags", "Num")}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.String(), `tuple(Tags: tuple())`; got != want {
		t.Errorf("reading Tags.Num built %s, want %s", got, want)
	}
}

// TestReadSetErrorsOnMutations: the mutated inputs of the parser
// differential, where most parses fail. A pruned parse recognises what a
// full parse recognises, so the ParseError is the same one.
func TestReadSetErrorsOnMutations(t *testing.T) {
	g := grammar.MiniBibtex(t)
	sets := [][][]db.Step{
		nil,
		{db.PathOf("Reference", "Key")},
		{db.PathOf("Reference", "Authors", "Name", "Last_Name")},
		{db.PathOf("Reference", "Authors", "Name", "Last_Name"), db.PathOf("Reference", "Editors")},
		{{{Attr: "Reference"}, {Any: true}, {Attr: "Name"}}},
	}
	failed := 0
	for i, src := range grammar.MutatedInputs() {
		doc := text.NewDocument(fmt.Sprintf("mut%d", i), src)
		if _, err := g.Parse(doc); err != nil {
			failed++
		}
		for _, set := range sets {
			checkReads(t, g, doc, g.Root(), 0, doc.Len(), set, compileReads(t, g, g.Root(), set))
		}
	}
	if failed < 50 {
		t.Errorf("only %d mutated inputs failed to parse; the error comparison is barely exercised", failed)
	}
}

// TestReadSetMemoServesOnlyItsNeed: the memo rule. On the shared-prefix
// grammar Left and Right parse the same Words at the same positions. Reading
// Right's and not Left's, the entries Left's quiet attempt recorded hold no
// node: they must not be served to Right, which parses the Words again.
// Reading Left's, Right's quiet attempt is served from Left's entries. Under
// one parent (Head, twice in Item) the need is the same and nothing is
// parsed twice.
func TestReadSetMemoServesOnlyItsNeed(t *testing.T) {
	g := grammar.SharedPrefixGrammar(t)
	for _, c := range []struct {
		src     string
		path    []db.Step
		rebuilt bool
		want    []string
	}{
		{"{'a,'b}?", db.PathOf("Item", "Right", "Word"), true, []string{"a", "b"}},
		{"{'a,'b}?", db.PathOf("Item", "Left", "Word"), false, nil},
		{"{'a,'b}!", db.PathOf("Item", "Left", "Word"), false, []string{"a", "b"}},
		{"({'a}?) ; {'b,'c}?", db.PathOf("Item", "Right", "Word"), true, []string{"b", "c"}},
		{"({'a}?) ; {'b,'c}?", db.PathOf("Item", "Item", "Right", "Word"), true, []string{"a"}},
		{"<'a,'b>:'c", db.PathOf("Item", "Head", "Word"), false, []string{"a", "b"}},
		{"<'a,'b>:'c", db.PathOf("Item", "Word"), false, []string{"c"}},
		{"((<'a>:'c)!)", db.PathOf("Item", "Item", "Item", "Head"), false, []string{"a"}},
	} {
		doc := text.NewDocument("choice", c.src)
		paths := [][]db.Step{c.path}
		reads := compileReads(t, g, "S", paths)
		v, rebuilt, err := g.ParseValueRebuilt(doc, "S", 0, doc.Len(), reads)
		if err != nil {
			t.Fatalf("%q reading %v: %v", c.src, c.path, err)
		}
		if got := db.NavigateStrings(v, c.path); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q reading %v: %q, want %q", c.src, c.path, got, c.want)
		}
		if (rebuilt > 0) != c.rebuilt {
			t.Errorf("%q reading %v: %d matches parsed again, want any = %v", c.src, c.path, rebuilt, c.rebuilt)
		}
		checkReads(t, g, doc, "S", 0, doc.Len(), paths, reads)
	}
	// Every input of the parser differential, under every one-path read set
	// the grammar has up to four steps deep.
	all := onePaths(g, "S", 4)
	for i, src := range sharedPrefixInputs {
		doc := text.NewDocument(fmt.Sprintf("choice%d", i), src)
		for _, p := range all {
			paths := [][]db.Step{p}
			checkReads(t, g, doc, "S", 0, doc.Len(), paths, compileReads(t, g, "S", paths))
		}
	}
}

// TestReadSetConcurrent: eight goroutines, each with its own read set, on
// the pooled runners of one grammar; a runner handed from one to another
// carries a memo table whose stale entries were built for a different need.
// Run it under -race.
func TestReadSetConcurrent(t *testing.T) {
	d := qgen.BibTeX(7)
	g, doc := d.Cat.Grammar, d.Doc
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	refs := tree.Find(bibtex.NTReference)
	sets := [][][]db.Step{
		{db.PathOf("Abstract")},
		{db.PathOf("Keywords"), db.PathOf("Title")},
		{db.PathOf("Authors", "Name", "Last_Name")},
		{db.PathOf("Editors", "Name", "Last_Name"), db.PathOf("Key")},
		{{{Any: true}, {Attr: "Name"}}},
		{{{Star: true}, {Attr: "Last_Name"}}},
		{db.PathOf("Nope")},
		{db.PathOf("Referred", "RefKey"), db.PathOf("Year")},
	}
	var wg sync.WaitGroup
	for w, set := range sets {
		wg.Add(1)
		go func(w int, set [][]db.Step) {
			defer wg.Done()
			reads, err := g.CompileReads(bibtex.NTReference, set)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 150; i++ {
				n := refs[(w*5+i)%len(refs)]
				to := n.End
				if i%7 == 6 {
					to -= 2 // a region that fails to parse
				}
				full, ferr := g.ParseValue(doc, bibtex.NTReference, n.Start, to, nil)
				got, gerr := g.ParseValue(doc, bibtex.NTReference, n.Start, to, reads)
				if !reflect.DeepEqual(ferr, gerr) {
					t.Errorf("goroutine %d: errors %v and %v", w, ferr, gerr)
					return
				}
				for _, p := range set {
					if want, have := db.Navigate(full, p), db.Navigate(got, p); !reflect.DeepEqual(want, have) {
						t.Errorf("goroutine %d reading %q: %v reaches %v, want %v", w, reads, p, have, want)
						return
					}
				}
			}
		}(w, set)
	}
	wg.Wait()
}

// TestReadSetAllocationCeilings pins what the benchmark's two phase-2 query
// shapes cost per candidate on the paper's Figure 1 entry, which costs 47
// allocations in full: reading Abstract, a tuple (header and attribute
// slice) and one boxed string; reading Keywords and Title, those, the
// Keywords tuple and its set (a header and a slice each) and four boxed
// strings.
func TestReadSetAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	g, doc, ref := sampleReference(t)
	for _, c := range readingCases(t, g) {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := g.ParseValue(doc, bibtex.NTReference, ref.Start, ref.End, c.reads); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := map[string]float64{"abstract": 4, "keywords+title": 10, "everything": 48}[c.name]
		t.Logf("reading %s: %.0f allocations per region", c.name, allocs)
		if allocs > ceiling {
			t.Errorf("reading %s: %.0f allocations per region, ceiling %.0f", c.name, allocs, ceiling)
		}
	}
}
