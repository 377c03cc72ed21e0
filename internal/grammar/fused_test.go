package grammar_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/logs"
	"qof/internal/qgen"
	"qof/internal/sgml"
	"qof/internal/srccode"
	"qof/internal/text"
)

// The flat-symbol differential: a parse that recognises flat symbols on
// their own must build the value, and fail with the error, of the general
// runner that sends every symbol through the memo and the depth count.

// TestFlatSymbolsClassified pins which symbols are flat: one production, and
// only flat symbols beneath. Every bibliography and log symbol is, the roots
// included; a recursive symbol (sgml's Section) is not, nor is a symbol with
// alternatives (Decl, Stmt), nor anything that reaches one of those.
func TestFlatSymbolsClassified(t *testing.T) {
	for _, c := range []struct {
		g       *grammar.Grammar
		notFlat []string
	}{
		{bibtex.Grammar(), nil},
		{logs.Grammar(), nil},
		{sgml.Grammar(), []string{sgml.NTDoc, sgml.NTSection}},
		{srccode.Grammar(), []string{srccode.NTSrcFile, srccode.NTDecl, srccode.NTStmt}},
		{grammar.SharedPrefixGrammar(t), []string{"S", "Item", "Head", "Left", "Right", "Word"}},
	} {
		var want []string
		for _, nt := range c.g.NonTerminals() {
			if !slices.Contains(c.notFlat, nt) {
				want = append(want, nt)
			}
		}
		if got := c.g.FlatSymbols(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flat symbols %v, want %v", c.g.Root(), got, want)
		}
	}
}

// checkFused parses [from, to) as nt under reads both ways. The fused parse
// may fall back to the general runner only when that fails too.
func checkFused(t *testing.T, g *grammar.Grammar, doc *text.Document, nt string, from, to int, reads *grammar.ReadSet) {
	t.Helper()
	want, _, werr := g.ParseValueOn(true, doc, nt, from, to, reads)
	got, replayed, gerr := g.ParseValueOn(false, doc, nt, from, to, reads)
	where := fmt.Sprintf("%s as %s [%d,%d) reading %q", doc.Name(), nt, from, to, reads)
	if !reflect.DeepEqual(werr, gerr) || fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: errors differ:\n  general %#v\n  fused   %#v", where, werr, gerr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: values differ:\n  general %v\n  fused   %v", where, want, got)
	}
	if replayed && werr == nil {
		t.Fatalf("%s: the fused parse failed where the general runner parses", where)
	}
}

// edits returns variants of the text of n, a node of a full parse, that
// stress each element of the productions beneath it: a space inserted at
// every node boundary, the byte on either side of a boundary deleted (a
// separator or delimiter cut), and every terminal leaf emptied.
func edits(content string, n *grammar.Node) []string {
	src := content[n.Start:n.End]
	var out []string
	n.Walk(func(k *grammar.Node) bool {
		for _, i := range []int{k.Start - n.Start, k.End - n.Start} {
			out = append(out, src[:i]+" "+src[i:])
			if i < len(src) {
				out = append(out, src[:i]+src[i+1:])
			}
			if i > 0 {
				out = append(out, src[:i-1]+src[i:])
			}
		}
		if k.Term {
			out = append(out, src[:k.Start-n.Start]+src[k.End-n.Start:])
		}
		return true
	})
	return out
}

// onePaths lists, for values of nt, the whole-value path and every path of
// attribute steps up to depth long.
func onePaths(g *grammar.Grammar, nt string, depth int) [][]db.Step {
	var out [][]db.Step
	var extend func(prefix []db.Step, nt string, depth int)
	extend = func(prefix []db.Step, nt string, depth int) {
		out = append(out, prefix)
		if depth == 0 {
			return
		}
		seen := map[string]bool{}
		for _, p := range g.Productions(nt) {
			for _, e := range p.RHS {
				if (e.Kind == grammar.ElemNT || e.Kind == grammar.ElemRep) && !seen[e.Name] {
					seen[e.Name] = true
					extend(append(slices.Clone(prefix), db.Step{Attr: e.Name}), e.Name, depth-1)
				}
			}
		}
	}
	extend(nil, nt, depth)
	return out
}

// onePathSets compiles a set that reads nothing and one set per path of
// onePaths.
func onePathSets(t *testing.T, g *grammar.Grammar, nt string, depth int) []*grammar.ReadSet {
	t.Helper()
	out := []*grammar.ReadSet{compileReads(t, g, nt, [][]db.Step{db.PathOf("Nope")})}
	for _, p := range onePaths(g, nt, depth) {
		out = append(out, compileReads(t, g, nt, [][]db.Step{p}))
	}
	return out
}

// maxEdited bounds the regions TestFusedMatchesGeneral cuts, shifts and
// edits, to keep it quick: a whole bibliography or log is larger, its
// references and entries are not.
const maxEdited = 2000

// TestFusedMatchesGeneral: every qgen domain and the source-code schema, as
// every non-terminal over its regions, the regions cut short by a byte and
// shifted by one, random ranges, and sixty edits of each of three regions,
// under every one-path read set up to four steps (an edit under the set
// that reads nothing, where every symbol below the region's is quiet, and
// two others); then the mutated inputs of the parser differential and the
// shared-prefix inputs, from the root.
func TestFusedMatchesGeneral(t *testing.T) {
	type corpus struct {
		g   *grammar.Grammar
		doc *text.Document
	}
	var corpora []corpus
	for _, seed := range []int64{1, 1994} {
		for _, d := range qgen.Domains(seed) {
			corpora = append(corpora, corpus{d.Cat.Grammar, d.Doc})
		}
	}
	src, _ := srccode.Generate(srccode.DefaultConfig(8))
	corpora = append(corpora, corpus{srccode.Grammar(), text.NewDocument("gen.src", src)})
	rng := rand.New(rand.NewSource(28))
	for _, c := range corpora {
		tree, err := c.g.Parse(c.doc)
		if err != nil {
			t.Fatalf("%s: %v", c.doc.Name(), err)
		}
		for _, nt := range c.g.NonTerminals() {
			regions := tree.Find(nt)
			rng.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
			regions = regions[:min(len(regions), 30)]
			sets := onePathSets(t, c.g, nt, 4)
			for _, reads := range sets {
				for _, n := range regions {
					checkFused(t, c.g, c.doc, nt, n.Start, n.End, reads)
					if n.End-n.Start > maxEdited {
						continue
					}
					checkFused(t, c.g, c.doc, nt, n.Start, n.End-1, reads)
					checkFused(t, c.g, c.doc, nt, n.Start+1, n.End, reads)
				}
				a := rng.Intn(c.doc.Len() + 1)
				checkFused(t, c.g, c.doc, nt, a, a+rng.Intn(c.doc.Len()-a+1), reads)
			}
			for _, n := range regions[:min(len(regions), 3)] {
				if n.End-n.Start > maxEdited {
					continue
				}
				variants := edits(c.doc.Content(), n)
				rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
				for _, src := range variants[:min(len(variants), 60)] {
					doc := text.NewDocument(c.doc.Name()+"-edit", src)
					for _, reads := range []*grammar.ReadSet{sets[0], sets[rng.Intn(len(sets))], sets[rng.Intn(len(sets))]} {
						checkFused(t, c.g, doc, nt, 0, doc.Len(), reads)
					}
				}
			}
		}
	}

	g := grammar.MiniBibtex(t)
	sets := onePathSets(t, g, g.Root(), 4)
	for i, src := range grammar.MutatedInputs() {
		doc := text.NewDocument(fmt.Sprintf("mut%d", i), src)
		for _, reads := range sets {
			checkFused(t, g, doc, g.Root(), 0, doc.Len(), reads)
		}
	}
	g = grammar.SharedPrefixGrammar(t)
	sets = onePathSets(t, g, "S", 4)
	for i, src := range sharedPrefixInputs {
		doc := text.NewDocument(fmt.Sprintf("choice%d", i), src)
		for _, reads := range sets {
			checkFused(t, g, doc, "S", 0, doc.Len(), reads)
		}
	}
}
