package grammar_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qof"
	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/text"
)

// The build's differential oracle: an instance assembled the way the build
// worked before it parsed under an index need — the whole tree from Parse,
// both extractors over all of it, one index.New — saved with
// index.Save. The build must save to the same bytes on every spec, and fail
// on the same documents with the same error.

func treeBuiltInstance(g *grammar.Grammar, doc *text.Document, spec grammar.IndexSpec) (*index.Instance, error) {
	tree, err := g.Parse(doc)
	if err != nil {
		return nil, err
	}
	names := spec.Names
	if names == nil {
		names = g.FullIndexSpec().Names
	}
	sets, scopes := grammar.ExtractRegions(tree, names...), map[string]string{}
	for _, sc := range spec.Scoped {
		sets[sc.Name], scopes[sc.Name] = grammar.ExtractScopedRegions(tree, sc.Name, sc.Within), sc.Within
	}
	return index.New(index.NewWordIndex(doc), sets, scopes), nil
}

func saved(t *testing.T, in *index.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBuild compares the build with the oracle on one document and spec,
// and reports whether the document parsed.
func checkBuild(t *testing.T, g *grammar.Grammar, doc *text.Document, spec grammar.IndexSpec) bool {
	t.Helper()
	where := fmt.Sprintf("%s under %+v", doc.Name(), spec)
	want, werr := treeBuiltInstance(g, doc, spec)
	got, tree, gerr := g.BuildInstance(doc, spec)
	if tree != nil {
		t.Fatalf("%s: the build handed out a tree", where)
	}
	if werr != nil || gerr != nil {
		if !reflect.DeepEqual(werr, gerr) || werr.Error() != gerr.Error() {
			t.Fatalf("%s: errors differ:\n  Parse %#v\n  build %#v", where, werr, gerr)
		}
		switch werr.(type) {
		case *grammar.ParseError, *grammar.DepthError:
		default:
			t.Fatalf("%s: error %#v is neither a ParseError nor a DepthError", where, werr)
		}
		return false
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("%s: the build indexes %v, the oracle %v", where, got.Names(), want.Names())
	}
	if !bytes.Equal(saved(t, got), saved(t, want)) {
		for _, name := range want.Names() {
			if w, h := want.MustRegion(name), got.MustRegion(name); !w.Equal(h) || want.Scope(name) != got.Scope(name) {
				t.Fatalf("%s: %s (scope %q) holds %d regions, the oracle's (scope %q) %d", where, name, got.Scope(name), h.Len(), want.Scope(name), w.Len())
			}
		}
		t.Fatalf("%s: saved instances differ", where)
	}
	return true
}

// mutations returns the text changed at one to four random positions, n
// times over.
func mutations(src string, n int, rng *rand.Rand) []string {
	out := make([]string, n)
	for i := range out {
		mutated := []byte(src)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] = byte(32 + rng.Intn(95))
		}
		out[i] = string(mutated)
	}
	return out
}

// TestBuildMatchesTreeBuiltInstance: every qgen domain (sgml's Section
// nests in itself: the need is a cycle there), every spec the generator
// offers — full, partial, scoped — and a few it does not, over the corpus
// and over mutated copies of it, most of which no longer parse.
func TestBuildMatchesTreeBuiltInstance(t *testing.T) {
	parsed, failed := 0, 0
	for _, seed := range []int64{1, 1994} {
		for _, d := range qgen.Domains(seed) {
			g := d.Cat.Grammar
			root := g.Root()
			specs := append([]grammar.IndexSpec{
				{Names: []string{}}, // no names: ExtractRegions takes every non-terminal, the root too
				{Names: []string{"Nope"}},
				{Names: []string{root}},
				{Names: []string{g.NonTerminals()[1]}, Scoped: []grammar.ScopedName{{Name: g.NonTerminals()[1], Within: g.NonTerminals()[1]}}}, // sgml: Section within Section
				{Names: []string{}, Scoped: []grammar.ScopedName{{Name: g.NonTerminals()[1], Within: root}}},
				{Names: []string{g.NonTerminals()[1]}, Scoped: []grammar.ScopedName{{Name: "Nope", Within: g.NonTerminals()[1]}, {Name: g.NonTerminals()[1], Within: "Nope"}}},
			}, d.Specs...)
			for _, spec := range specs {
				if !checkBuild(t, g, d.Doc, spec) {
					t.Fatalf("%s does not parse", d.Doc.Name())
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for i, m := range mutations(d.Doc.Content(), 40, rng) {
				doc := text.NewDocument(fmt.Sprintf("%s~%d", d.Doc.Name(), i), m)
				for _, spec := range d.Specs {
					if checkBuild(t, g, doc, spec) {
						parsed++
					} else {
						failed++
					}
				}
			}
		}
	}
	t.Logf("mutated documents × specs: %d built, %d failed to parse", parsed, failed)
	if parsed == 0 || failed == 0 {
		t.Errorf("%d mutated builds succeeded and %d failed; the comparison needs both", parsed, failed)
	}
}

// TestBuildHandPickedSpecs: the selective shapes by name. On the
// bibliography: a scoped entry overriding a global one of the same name, a
// scope equal to the root, a name and a scope the grammar lacks. On the
// shared-prefix grammar: Word stands at the same positions under Left and
// Right and under two alternatives of Item, so the parse under the need
// takes memo hits and re-parses positions after backtracking; on the
// left-recursive grammar the build fails with Parse's DepthError.
func TestBuildHandPickedSpecs(t *testing.T) {
	d := qgen.BibTeX(1994)
	for _, spec := range []grammar.IndexSpec{
		{
			Names:  []string{bibtex.NTReference, bibtex.NTLastName},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTEditors}},
		},
		{Names: []string{bibtex.NTKey}, Scoped: []grammar.ScopedName{{Name: bibtex.NTName, Within: d.Cat.Grammar.Root()}}},
		{Names: []string{bibtex.NTReference}, Scoped: []grammar.ScopedName{{Name: bibtex.NTName, Within: "Nope"}}},
		{Names: []string{bibtex.NTReference, "Nope"}, Scoped: []grammar.ScopedName{{Name: "Nope", Within: bibtex.NTAuthors}}},
		{Names: []string{bibtex.NTLastName, bibtex.NTLastName}},
		{Names: []string{}, Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}}},
	} {
		checkBuild(t, d.Cat.Grammar, d.Doc, spec)
	}
	// The override took: the instance holds the editors' last names only.
	in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, grammar.IndexSpec{
		Names:  []string{bibtex.NTLastName},
		Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTEditors}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Scope(bibtex.NTLastName) != bibtex.NTEditors {
		t.Errorf("Last_Name has scope %q, want the scoped entry's", in.Scope(bibtex.NTLastName))
	}

	sp := grammar.SharedPrefixGrammar(t)
	for i, src := range sharedPrefixInputs {
		doc := text.NewDocument(fmt.Sprintf("choice%d", i), src)
		for _, spec := range []grammar.IndexSpec{
			{Names: []string{"Word"}},
			{Names: []string{}, Scoped: []grammar.ScopedName{{Name: "Word", Within: "Left"}}},
			{Names: []string{"Head"}, Scoped: []grammar.ScopedName{{Name: "Word", Within: "Left"}}},
			{Names: []string{"Item"}},
			{Names: []string{"Num", "Right"}},
			{},
		} {
			checkBuild(t, sp, doc, spec)
		}
	}

	lr := grammar.NewGrammar("S")
	lr.MustAddTerminal("W", `[a-z]+`)
	lr.AddProduction("S", grammar.Lit("["), grammar.Term("W"), grammar.Lit("]"))
	lr.AddProduction("S", grammar.Lit("{"), grammar.NT("A"), grammar.Lit("}"))
	lr.AddProduction("A", grammar.NT("A"), grammar.Lit("x"))
	lr.AddProduction("A", grammar.Lit("y"))
	for _, spec := range []grammar.IndexSpec{{}, {Names: []string{"A"}}, {Names: []string{"Nope"}}} {
		if checkBuild(t, lr, text.NewDocument("lr", "  {yx}"), spec) {
			t.Error("the left-recursive document built")
		}
		if !checkBuild(t, lr, text.NewDocument("ok", "[abc]"), spec) {
			t.Error("the document that does not reach the recursion failed")
		}
	}
}

// TestBuildPanicIsInternalError: a panic on the build's word-index side
// comes back through the facade as ErrInternal — File and Corpus, which
// names the file — and the schema indexes and answers afterwards.
func TestBuildPanicIsInternalError(t *testing.T) {
	src, _ := bibtex.Generate(bibtex.DefaultConfig(20))
	schema := qof.BibTeX()
	restore := grammar.SetNewWordIndex(func(doc *text.Document) *index.WordIndex {
		if strings.HasPrefix(doc.Name(), "bad") {
			panic("word index: out of cheese")
		}
		return index.NewWordIndex(doc)
	})
	defer restore()

	base := runtime.NumGoroutine()
	_, err := schema.IndexContext(context.Background(), "bad.bib", src)
	if !errors.Is(err, qof.ErrInternal) || !strings.Contains(err.Error(), "out of cheese") || !strings.Contains(err.Error(), "bad.bib") {
		t.Fatalf("IndexContext: %v, want ErrInternal naming bad.bib and carrying the panic's value", err)
	}
	corpus := schema.NewCorpus()
	err = corpus.AddAll(map[string]string{"a.bib": src, "bad2.bib": src, "c.bib": src})
	if !errors.Is(err, qof.ErrInternal) || !strings.Contains(err.Error(), "bad2.bib") || strings.Contains(err.Error(), "a.bib") {
		t.Fatalf("AddAll: %v, want ErrInternal attributed to bad2.bib alone", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the failed builds, %d before", n, base)
	}

	f, err := schema.Index("good.bib", src, qof.WithRegions(bibtex.NTReference, bibtex.NTKey))
	if err != nil {
		t.Fatalf("the schema after the panics: %v", err)
	}
	res, err := f.Query(`SELECT r.Key FROM References r`)
	if err != nil || res.Len() != 20 {
		t.Fatalf("query after the panics: %v, %d results, want 20", err, res.Len())
	}
}

// TestBuildAllocatesWhatTheSpecNames pins the build's cost without a clock,
// on a 500-reference file: under the paper's partial spec everything the
// build does beside the word index — parse under the need, extraction,
// index.New — allocates at most 45% of the bytes Parse alone does (41% when
// written: the pruned tree holds three symbols' nodes and their ancestors,
// a quarter of the nodes, in slabs cut for half again as many, and the
// extractor's groups are a sixth of it); under the full spec, which keeps
// every non-terminal, the build still allocates strictly less than the
// tree-built instance did, because no terminal leaf is made.
func TestBuildAllocatesWhatTheSpecNames(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are not deterministic under the race detector")
	}
	g, doc := buildCorpus(t, 500)
	specs := buildSpecs()
	bytesOf := func(f func()) uint64 {
		f() // first use: compile the grammar, size the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 5
	}
	build := func(spec grammar.IndexSpec) func() {
		return func() {
			if _, _, err := g.BuildInstance(doc, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	parse := bytesOf(func() {
		if _, err := g.Parse(doc); err != nil {
			t.Fatal(err)
		}
	})
	treeBuilt := bytesOf(func() {
		if _, err := treeBuiltInstance(g, doc, specs["full"]); err != nil {
			t.Fatal(err)
		}
	})
	words := bytesOf(func() { index.NewWordIndex(doc) })
	partial, full := bytesOf(build(specs["partial"])), bytesOf(build(specs["full"]))
	t.Logf("bytes allocated on %d bytes of text: Parse %d, word index %d, partial build %d, full build %d, tree-built full instance %d",
		doc.Len(), parse, words, partial, full, treeBuilt)
	if 100*(partial-words) > 45*parse {
		t.Errorf("the partial build allocates %d bytes beside the word index's %d, Parse alone %d: over 45%%", partial-words, words, parse)
	}
	if full >= treeBuilt {
		t.Errorf("the full build allocates %d bytes, the tree-built instance %d", full, treeBuilt)
	}
}
