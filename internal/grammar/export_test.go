package grammar

import (
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"qof/internal/db"
	"qof/internal/index"
	"qof/internal/text"
)

// Hooks for the external grammar_test package, which holds the parser
// differential oracle: it has to import qgen for the generated corpora, and
// qgen imports this package.

// MiniBibtex, MiniDoc and MutatedInputs share the in-package fixtures.
var (
	MiniBibtex    = miniBibtex
	MutatedInputs = mutatedInputs
)

// ExtractRegions and ExtractScopedRegions are Regions' tree walkers, for the
// tests that extract from a whole parse tree to check Regions against.
var (
	ExtractRegions       = extractRegions
	ExtractScopedRegions = extractScopedRegions
)

const MiniDoc = miniDoc

// TerminalMatch runs the terminal class's matcher at the start of s, as the
// parser does: the match length, or a value <= 0 for no match.
func (g *Grammar) TerminalMatch(name, s string) int { return g.terms[name](s) }

// RegexpTerminals lists the terminal classes compileSimple could not
// express, which run on the regexp engine. A matcher is a closure, so it is
// recognised by the name of its code: regexpMatcher's, wherever inlined.
func (g *Grammar) RegexpTerminals() []string {
	var out []string
	for name, m := range g.terms {
		fn := runtime.FuncForPC(reflect.ValueOf(m).Pointer())
		if fn != nil && strings.Contains(fn.Name(), "regexpMatcher") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SharedPrefixGrammar is the ordered-choice grammar of the differential
// tests: alternatives of Item fail after matching a prefix the next
// alternative also starts with. Head is shared by two alternatives of one
// parent; Left and Right are different parents whose Words stand at the
// same positions, so under a read set that reads one and not the other the
// memo holds a Word built for the wrong need. Word has two alternatives so
// that it is not flat: a flat symbol parsed quietly is recognised without
// the memo, and Left's Words would leave no entry for Right to find.
func SharedPrefixGrammar(t testing.TB) *Grammar {
	t.Helper()
	g := NewGrammar("S")
	g.MustAddTerminal("N", `[0-9]+`)
	g.MustAddTerminal("W", `[a-z]+`)
	g.AddProduction("S", Rep("Item", ";"))
	g.AddProduction("Item", NT("Head"), Lit("="), NT("Num"))
	g.AddProduction("Item", NT("Head"), Lit(":"), NT("Word"))
	g.AddProduction("Item", Lit("("), NT("Item"), Lit(")"), Lit("!"))
	g.AddProduction("Item", Lit("("), NT("Item"), Lit(")"))
	g.AddProduction("Item", NT("Left"), Lit("!"))
	g.AddProduction("Item", NT("Right"), Lit("?"))
	g.AddProduction("Head", Lit("<"), Rep("Word", ","), Lit(">"))
	g.AddProduction("Left", Lit("{"), Rep("Word", ","), Lit("}"))
	g.AddProduction("Right", Lit("{"), Rep("Word", ","), Lit("}"))
	g.AddProduction("Num", Lit("#"), Term("N"))
	g.AddProduction("Word", Lit("'"), Term("W"))
	g.AddProduction("Word", Lit(`"`), Term("W"), Lit(`"`))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// ParseValueRebuilt is ParseValue on a fresh runner that also reports how
// many memoized matches were parsed again because their entry had been
// built for another need.
func (g *Grammar) ParseValueRebuilt(doc *text.Document, sym string, from, to int, reads *ReadSet) (db.Value, int, error) {
	r := new(runner)
	node, err := g.parseWith(r, doc, sym, from, to, reads)
	if err != nil {
		return nil, r.rebuilt, err
	}
	return buildValue(node, doc.Content(), reads), r.rebuilt, nil
}

// ParseValueOn is ParseValue on a fresh runner. A general one never
// recognises a flat symbol on its own: every non-terminal goes through
// parseNT, with its memo, depth count and failure reports. Otherwise the
// runner reports whether the parse failed and was run again on the general
// runner.
func (g *Grammar) ParseValueOn(general bool, doc *text.Document, sym string, from, to int, reads *ReadSet) (v db.Value, replayed bool, err error) {
	if reads == nil {
		reads = everything
	}
	r := &runner{general: general}
	node, err := g.parseWith(r, doc, sym, from, to, reads)
	replayed = r.general && !general
	if err != nil {
		return nil, replayed, err
	}
	return buildValue(node, doc.Content(), reads), replayed, nil
}

// FlatSymbols lists the non-terminals the parser classified as flat, in
// definition order.
func (g *Grammar) FlatSymbols() []string {
	prog, err := g.program()
	if err != nil {
		panic(err)
	}
	var out []string
	for id, h := range prog.flat {
		if h > 0 {
			out = append(out, prog.names[id])
		}
	}
	return out
}

// Count reports the number of nodes in the subtree.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// SetNewWordIndex replaces the word-index side of BuildInstanceContext —
// the function its second goroutine runs — for a test, and returns the
// function that restores it.
func SetNewWordIndex(f func(*text.Document) *index.WordIndex) (restore func()) {
	old := newWordIndex
	newWordIndex = f
	return func() { newWordIndex = old }
}
