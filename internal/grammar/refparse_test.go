package grammar_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qof/internal/grammar"
	"qof/internal/qgen"
	"qof/internal/text"
)

// The parser differential oracle. refRunner is the parser this package
// shipped before the compiled, slab-allocated runner: one Go map keyed by
// (symbol name, position) memoizing every non-terminal result for the whole
// parse, one heap allocation per node, children grown by append. It is kept
// as it was, apart from reaching the grammar through its exported surface
// (Productions, SkipSpace) and the TerminalMatch test hook. The new runner
// must produce node-for-node the same tree and the same ParseError.

type refMemoKey struct {
	sym string
	pos int
}

type refMemoVal struct {
	node *grammar.Node
	end  int
	ok   bool
}

type refRunner struct {
	g        *grammar.Grammar
	src      string
	memo     map[refMemoKey]refMemoVal
	furthest int
	expected []string
	depth    int
}

const refMaxDepth = 10000

func refParseAs(g *grammar.Grammar, doc *text.Document, sym string, from, to int) (*grammar.Node, error) {
	if len(g.Productions(sym)) == 0 {
		return nil, fmt.Errorf("grammar: unknown non-terminal %q", sym)
	}
	p := &refRunner{g: g, src: doc.Content()[:to], memo: make(map[refMemoKey]refMemoVal)}
	node, end, ok := p.parseNT(sym, from)
	if ok {
		if rest := p.skip(end); rest == to {
			return node, nil
		}
		if end > p.furthest {
			p.furthest = end
			p.expected = []string{"end of region"}
		}
	}
	return nil, &grammar.ParseError{Doc: doc.Name(), Offset: p.furthest, Expected: refDedupe(p.expected)}
}

func (r *refRunner) skip(pos int) int {
	if !r.g.SkipSpace {
		return pos
	}
	for pos < len(r.src) {
		switch r.src[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

func (r *refRunner) fail(pos int, expected string) {
	if pos > r.furthest {
		r.furthest = pos
		r.expected = r.expected[:0]
	}
	if pos == r.furthest {
		r.expected = append(r.expected, expected)
	}
}

func (r *refRunner) parseNT(sym string, pos int) (*grammar.Node, int, bool) {
	key := refMemoKey{sym, pos}
	if v, ok := r.memo[key]; ok {
		return v.node, v.end, v.ok
	}
	r.depth++
	if r.depth > refMaxDepth {
		panic(fmt.Sprintf("grammar: recursion depth exceeded parsing %q at offset %d (left recursion?)", sym, pos))
	}
	var out refMemoVal
	for _, p := range r.g.Productions(sym) {
		if node, end, ok := r.parseProd(p, pos); ok {
			out = refMemoVal{node: node, end: end, ok: true}
			break
		}
	}
	r.depth--
	r.memo[key] = out
	return out.node, out.end, out.ok
}

func (r *refRunner) parseProd(p *grammar.Production, pos int) (*grammar.Node, int, bool) {
	cur := r.skip(pos)
	start := cur
	node := &grammar.Node{Sym: p.LHS, Prod: p, Start: start}
	for _, e := range p.RHS {
		cur = r.skip(cur)
		switch e.Kind {
		case grammar.ElemLit:
			if !refHasPrefixAt(r.src, cur, e.Text) {
				r.fail(cur, fmt.Sprintf("%q", e.Text))
				return nil, 0, false
			}
			cur += len(e.Text)
		case grammar.ElemTerm:
			n := r.g.TerminalMatch(e.Name, r.src[cur:])
			if n <= 0 {
				r.fail(cur, "<"+e.Name+">")
				return nil, 0, false
			}
			node.Kids = append(node.Kids, &grammar.Node{
				Sym: e.Name, Term: true, Start: cur, End: cur + n,
			})
			cur += n
		case grammar.ElemNT:
			kid, end, ok := r.parseNT(e.Name, cur)
			if !ok {
				return nil, 0, false
			}
			node.Kids = append(node.Kids, kid)
			cur = end
		case grammar.ElemRep:
			kid, end, ok := r.parseNT(e.Name, cur)
			if !ok {
				break // zero repetitions
			}
			node.Kids = append(node.Kids, kid)
			cur = end
			for {
				after := r.skip(cur)
				if e.Text != "" {
					if !refHasPrefixAt(r.src, after, e.Text) {
						break
					}
					after += len(e.Text)
				}
				kid, end, ok := r.parseNT(e.Name, after)
				if !ok {
					break
				}
				node.Kids = append(node.Kids, kid)
				cur = end
			}
		}
	}
	node.End = cur
	if node.End < node.Start {
		node.End = node.Start
	}
	return node, cur, true
}

func refHasPrefixAt(s string, pos int, prefix string) bool {
	return pos+len(prefix) <= len(s) && s[pos:pos+len(prefix)] == prefix
}

func refDedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sameTree compares two trees node for node: symbol, kind, span, matched
// production and children in order.
func sameTree(a, b *grammar.Node) error {
	if a.Sym != b.Sym || a.Term != b.Term || a.Start != b.Start || a.End != b.End || a.Prod != b.Prod {
		return fmt.Errorf("node %s%v [%d,%d) prod %p vs %s%v [%d,%d) prod %p",
			a.Sym, a.Term, a.Start, a.End, a.Prod, b.Sym, b.Term, b.Start, b.End, b.Prod)
	}
	if len(a.Kids) != len(b.Kids) {
		return fmt.Errorf("%s [%d,%d): %d children vs %d", a.Sym, a.Start, a.End, len(a.Kids), len(b.Kids))
	}
	for i := range a.Kids {
		if err := sameTree(a.Kids[i], b.Kids[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkSame parses [from, to) as sym with both parsers and fails the test
// unless they agree on the tree, or on the ParseError.
func checkSame(t *testing.T, g *grammar.Grammar, doc *text.Document, sym string, from, to int) {
	t.Helper()
	want, werr := refParseAs(g, doc, sym, from, to)
	got, gerr := g.ParseAs(doc, sym, int32(from), int32(to))
	where := fmt.Sprintf("%s as %s [%d,%d)", doc.Name(), sym, from, to)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: reference error %v, runner error %v", where, werr, gerr)
	}
	if werr != nil {
		if !reflect.DeepEqual(werr, gerr) || werr.Error() != gerr.Error() {
			t.Fatalf("%s: errors differ:\n  reference %#v\n  runner    %#v", where, werr, gerr)
		}
		return
	}
	if err := sameTree(want, got); err != nil {
		t.Fatalf("%s: trees differ: %v", where, err)
	}
	// The pooled path must build the value of that same tree.
	v, err := g.ParseValue(doc, sym, from, to, nil)
	if err != nil {
		t.Fatalf("%s: ParseValue: %v", where, err)
	}
	if w := grammar.BuildValue(want, doc.Content()); !reflect.DeepEqual(w, v) {
		t.Fatalf("%s: ParseValue built\n  %s\nthe reference tree's value is\n  %s", where, v, w)
	}
}

// TestRunnerMatchesReferenceOnCorpora: every qgen domain's generated
// document, whole, then every non-terminal occurrence as its own region,
// then random sub-ranges (mostly failures).
func TestRunnerMatchesReferenceOnCorpora(t *testing.T) {
	for _, seed := range []int64{1, 1994} {
		for _, d := range qgen.Domains(seed) {
			g, doc := d.Cat.Grammar, d.Doc
			checkSame(t, g, doc, g.Root(), 0, doc.Len())
			tree, err := g.Parse(doc)
			if err != nil {
				t.Fatalf("%s: %v", doc.Name(), err)
			}
			regions := 0
			tree.Walk(func(n *grammar.Node) bool {
				if !n.Term {
					checkSame(t, g, doc, n.Sym, n.Start, n.End)
					regions++
				}
				return true
			})
			if regions < 20 {
				t.Errorf("%s: only %d regions compared", doc.Name(), regions)
			}
			rng := rand.New(rand.NewSource(seed))
			syms := g.NonTerminals()
			for trial := 0; trial < 300; trial++ {
				a := rng.Intn(doc.Len() + 1)
				b := a + rng.Intn(doc.Len()-a+1)
				checkSame(t, g, doc, syms[rng.Intn(len(syms))], a, b)
			}
		}
	}
}

// TestRunnerMatchesReferenceOnMutations: the inputs of
// TestParseMutatedCorpus, where most parses fail — the ParseError offset and
// expected list must be the reference's — and the ranges of
// TestParseAsArbitraryRanges.
func TestRunnerMatchesReferenceOnMutations(t *testing.T) {
	g := grammar.MiniBibtex(t)
	failed := 0
	for i, src := range grammar.MutatedInputs() {
		doc := text.NewDocument(fmt.Sprintf("mut%d", i), src)
		checkSame(t, g, doc, g.Root(), 0, doc.Len())
		if _, err := g.Parse(doc); err != nil {
			failed++
		}
	}
	if failed < 50 {
		t.Errorf("only %d mutated inputs failed to parse; the error comparison is barely exercised", failed)
	}
	doc := text.NewDocument("mini", grammar.MiniDoc)
	syms := g.NonTerminals()
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		a := rng.Intn(doc.Len() + 1)
		b := a + rng.Intn(doc.Len()-a+1)
		checkSame(t, g, doc, syms[rng.Intn(len(syms))], a, b)
	}
}

// TestRunnerMatchesReferenceOnSharedPrefix: ordered choice where the first
// alternative fails after matching a prefix the second alternative also
// starts with. The prefix's result is recorded while the first alternative
// (a choice point) is open and must be served, unchanged, to the second —
// also when the choice sits under a repetition and under further choices.
func TestRunnerMatchesReferenceOnSharedPrefix(t *testing.T) {
	g := grammar.SharedPrefixGrammar(t)
	for i, src := range sharedPrefixInputs {
		doc := text.NewDocument(fmt.Sprintf("choice%d", i), src)
		checkSame(t, g, doc, "S", 0, doc.Len())
		checkSame(t, g, doc, "Item", 0, doc.Len())
	}
}

var sharedPrefixInputs = []string{
	"<'a,'b>=#1",
	"<'a,'b>:'c",
	"<'a>:'c ; <'b>=#2 ; <>:'d",
	"((<'a>:'c))",
	"((<'a>:'c)!)",
	"(((<'a,'b,'c>:'c)!))! ; (<'x>=#9)",
	"{'a,'b}!",
	"{'a,'b}?",
	"({'a}?) ; {'b,'c}! ; ({}?)!",
	`{'a,"b"}? ; <"c">:'d`,
	"",
	// Failures: the error comes from the furthest alternative.
	"<'a,'b>?#1",
	"<'a,'b>:#1",
	"((<'a>:'c)",
	"((<'a>:'c)!)) ; <'b>",
	"<'a>:'c ; ; <'b>=#2",
	"{'a,'b}",
	"{'a,'b?",
	`{'a,"b}!`,
}
