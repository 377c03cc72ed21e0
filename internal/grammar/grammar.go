// Package grammar implements structuring schemas (Section 4 of the paper):
// annotated grammars that specify how a file is interpreted in a database.
// A Grammar couples a context-free grammar (with PEG-style ordered choice
// and repetition, in the spirit of the paper's Yacc-based schemas) with
// database construction rules. From a grammar the package derives
//
//   - a parser producing parse trees whose nodes carry byte-offset regions,
//   - the database image of a parse (natural structuring schemas, §4.2:
//     repetitions become sets, sequences become tuples whose attribute
//     names are the non-terminal names, terminals become strings),
//   - the region inclusion graph (§4.2: an edge (A, B) iff B occurs on the
//     right-hand side of a production of A), and
//   - region-index instances for full, partial and selective indexing.
//
// Because the PAT algebra identifies a region with its pair of positions,
// a parent and child region must never coincide: Validate rejects unit
// productions (a right-hand side that is exactly one non-terminal), except
// for the root symbol, which is never indexed. Practical formats satisfy
// this naturally — fields are wrapped in delimiters.
package grammar

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"qof/internal/db"
)

// ElemKind discriminates right-hand-side elements.
type ElemKind int

// Element kinds.
const (
	ElemLit  ElemKind = iota // literal text
	ElemTerm                 // terminal class (regexp)
	ElemNT                   // non-terminal
	ElemRep                  // repetition of a non-terminal with a separator
)

// Elem is one element of a production right-hand side.
type Elem struct {
	Kind ElemKind
	Text string // literal text (ElemLit) or separator (ElemRep)
	Name string // terminal class or non-terminal name
}

// Lit builds a literal element.
func Lit(text string) Elem { return Elem{Kind: ElemLit, Text: text} }

// Term builds a terminal-class element.
func Term(name string) Elem { return Elem{Kind: ElemTerm, Name: name} }

// NT builds a non-terminal element.
func NT(name string) Elem { return Elem{Kind: ElemNT, Name: name} }

// Rep builds a repetition element: zero or more name occurrences separated
// by sep (the paper's A → B* form, with an optional separator).
func Rep(name, sep string) Elem { return Elem{Kind: ElemRep, Name: name, Text: sep} }

func (e Elem) String() string {
	switch e.Kind {
	case ElemLit:
		return fmt.Sprintf("%q", e.Text)
	case ElemTerm:
		return "<" + e.Name + ">"
	case ElemNT:
		return "(" + e.Name + ")"
	default:
		if e.Text == "" {
			return "(" + e.Name + ")*"
		}
		return fmt.Sprintf("(%s)* sep %q", e.Name, e.Text)
	}
}

// Action converts the matched children of a production into a database
// value, overriding the natural construction. kids holds the values of the
// non-literal elements in right-hand-side order ($1…$n in the paper's
// Yacc-like notation; a repetition contributes one *db.Set). matched is the
// full matched text.
type Action func(kids []db.Value, matched string) db.Value

// Production is one alternative for a non-terminal.
type Production struct {
	LHS    string
	RHS    []Elem
	Action Action // nil selects the natural construction of §4.2

	shape atomic.Pointer[prodShape] // see natural
}

// prodShape is what the natural construction needs to know about a
// right-hand side: the names of its repetition elements in order, and how
// many attributes the tuple has (one per non-terminal or repetition
// element).
type prodShape struct {
	reps  []string
	attrs int
}

var noShape prodShape

// natural returns the production's shape. Validate computes it; a
// production Validate has not seen (a hand-built tree, a grammar first used
// by BuildValue) gets it from its right-hand side on first use, and a node
// without a production has no repetitions. The shape is immutable and
// published atomically, so goroutines sharing a grammar may race to derive
// it: they derive equal shapes.
func (p *Production) natural() *prodShape {
	if p == nil {
		return &noShape
	}
	if s := p.shape.Load(); s != nil {
		return s
	}
	s := newShape(p.RHS)
	p.shape.Store(s)
	return s
}

func newShape(rhs []Elem) *prodShape {
	s := new(prodShape)
	for _, e := range rhs {
		switch e.Kind {
		case ElemRep:
			s.reps = append(s.reps, e.Name)
			s.attrs++
		case ElemNT:
			s.attrs++
		}
	}
	return s
}

// isRep reports whether sym is a repetition element.
func (s *prodShape) isRep(sym string) bool {
	for _, r := range s.reps {
		if r == sym {
			return true
		}
	}
	return false
}

func (p *Production) String() string {
	parts := make([]string, len(p.RHS))
	for i, e := range p.RHS {
		parts[i] = e.String()
	}
	return "(" + p.LHS + ") -> " + strings.Join(parts, " ")
}

// Grammar is a structuring schema: terminal classes, productions and a root
// symbol. Build one with NewGrammar and the Add* methods, then call
// Validate (Parse validates on first use).
type Grammar struct {
	root      string
	prods     map[string][]*Production
	ntOrder   []string
	terms     map[string]matcher
	termOrder []string

	// SkipSpace makes the parser skip ASCII whitespace before every
	// element, which suits free-format files; offsets of matched elements
	// are unaffected. Default true.
	SkipSpace bool

	// What the parser runs: compiled by Validate, nil again after an Add*.
	// A grammar may be shared by goroutines before anyone validated it (the
	// parser validates on first use), so compiling is serialised by mu and
	// the program is published whole.
	mu   sync.Mutex
	prog atomic.Pointer[program]
}

// program is the grammar compiled for the parser: non-terminals are small
// integers (memo keys and production lookups need no string hashing) and
// every element carries its resolved matcher or symbol id and the
// pre-formatted text a ParseError reports when it does not match.
type program struct {
	ids   map[string]int
	names []string  // symbol id -> non-terminal name, in definition order
	prods [][]cProd // symbol id -> alternatives in order

	// flat is, per symbol id, the height in non-terminals of a flat
	// symbol's subtree (1 when its production names none), or 0 for a
	// symbol that is not flat. A flat symbol has one production and
	// reaches only flat symbols: it can neither recurse nor choose, so the
	// runner recognises it quietly in one pass (recognise).
	flat []int
}

type cProd struct {
	prod  *Production
	elems []cElem
}

type cElem struct {
	kind     ElemKind
	text     string  // literal text (ElemLit) or separator (ElemRep)
	name     string  // terminal class (ElemTerm)
	match    matcher // ElemTerm
	sym      int     // symbol id (ElemNT, ElemRep)
	expected string  // ElemLit, ElemTerm
}

// NewGrammar creates an empty grammar with the given root symbol.
func NewGrammar(root string) *Grammar {
	return &Grammar{
		root:      root,
		prods:     make(map[string][]*Production),
		terms:     make(map[string]matcher),
		SkipSpace: true,
	}
}

// Root returns the root symbol.
func (g *Grammar) Root() string { return g.root }

// AddTerminal defines a terminal class by an RE2 pattern matched at the
// current input position. Simple patterns — concatenations of ASCII
// character classes and literals with * or + quantifiers — are compiled to
// direct byte scanners, which dominate parsing speed; anything else runs
// through the regexp engine.
func (g *Grammar) AddTerminal(name, pattern string) error {
	if _, ok := g.terms[name]; ok {
		return fmt.Errorf("grammar: terminal %q redefined", name)
	}
	re, err := regexp.Compile("^(?:" + pattern + ")")
	if err != nil {
		return fmt.Errorf("grammar: terminal %q: %w", name, err)
	}
	if m := compileSimple(pattern); m != nil {
		g.terms[name] = m
	} else {
		g.terms[name] = regexpMatcher(re)
	}
	g.termOrder = append(g.termOrder, name)
	g.prog.Store(nil)
	return nil
}

// MustAddTerminal is AddTerminal, panicking on error; for fixed grammars.
func (g *Grammar) MustAddTerminal(name, pattern string) {
	if err := g.AddTerminal(name, pattern); err != nil {
		panic(err)
	}
}

// AddProduction appends an alternative for the non-terminal lhs.
// Alternatives are tried in insertion order with PEG semantics: the first
// that matches wins.
func (g *Grammar) AddProduction(lhs string, rhs ...Elem) *Production {
	p := &Production{LHS: lhs, RHS: rhs}
	if _, ok := g.prods[lhs]; !ok {
		g.ntOrder = append(g.ntOrder, lhs)
	}
	g.prods[lhs] = append(g.prods[lhs], p)
	g.prog.Store(nil)
	return p
}

// NonTerminals returns the non-terminal names in definition order.
func (g *Grammar) NonTerminals() []string {
	out := make([]string, len(g.ntOrder))
	copy(out, g.ntOrder)
	return out
}

// Productions returns the alternatives of a non-terminal.
func (g *Grammar) Productions(name string) []*Production { return g.prods[name] }

// Validate checks the grammar is well formed and compiles it for the
// parser:
//
//   - the root symbol and every referenced non-terminal have productions,
//   - every referenced terminal class is defined,
//   - no non-terminal occurs twice in one right-hand side (the paper's
//     requirement so that attribute names are unambiguous),
//   - no unit production outside the root (coincident parent/child spans
//     are indistinguishable to the position-pair region model).
func (g *Grammar) Validate() error {
	_, err := g.program()
	return err
}

// program returns the compiled grammar, validating and compiling it if
// nothing has since the last Add*.
func (g *Grammar) program() (*program, error) {
	if pr := g.prog.Load(); pr != nil {
		return pr, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if pr := g.prog.Load(); pr != nil {
		return pr, nil
	}
	if err := g.check(); err != nil {
		return nil, err
	}
	pr := g.compile()
	g.prog.Store(pr)
	return pr, nil
}

// check is Validate's list of rules.
func (g *Grammar) check() error {
	if len(g.prods[g.root]) == 0 {
		return fmt.Errorf("grammar: root %q has no productions", g.root)
	}
	for _, lhs := range g.ntOrder {
		for _, p := range g.prods[lhs] {
			seen := make(map[string]bool)
			nonLit := 0
			for _, e := range p.RHS {
				switch e.Kind {
				case ElemTerm:
					nonLit++
					if g.terms[e.Name] == nil {
						return fmt.Errorf("grammar: %s references undefined terminal %q", p, e.Name)
					}
				case ElemNT, ElemRep:
					nonLit++
					if len(g.prods[e.Name]) == 0 {
						return fmt.Errorf("grammar: %s references undefined non-terminal %q", p, e.Name)
					}
					if seen[e.Name] {
						return fmt.Errorf("grammar: %s uses non-terminal %q twice in one right-hand side", p, e.Name)
					}
					seen[e.Name] = true
				}
			}
			if lhs != g.root && len(p.RHS) == 1 &&
				(p.RHS[0].Kind == ElemNT || p.RHS[0].Kind == ElemRep) {
				return fmt.Errorf("grammar: %s is a unit production; wrap the child in delimiters so parent and child regions cannot coincide", p)
			}
		}
	}
	return nil
}

// compile builds the parser's program from a grammar check has passed.
func (g *Grammar) compile() *program {
	pr := &program{
		ids:   make(map[string]int, len(g.ntOrder)),
		names: g.ntOrder,
		prods: make([][]cProd, len(g.ntOrder)),
	}
	for id, name := range g.ntOrder {
		pr.ids[name] = id
	}
	for id, lhs := range g.ntOrder {
		for _, p := range g.prods[lhs] {
			cp := cProd{prod: p, elems: make([]cElem, len(p.RHS))}
			p.shape.Store(newShape(p.RHS))
			for i, e := range p.RHS {
				ce := cElem{kind: e.Kind, text: e.Text}
				switch e.Kind {
				case ElemLit:
					ce.expected = fmt.Sprintf("%q", e.Text)
				case ElemTerm:
					ce.name, ce.match = e.Name, g.terms[e.Name]
					ce.expected = "<" + e.Name + ">"
				case ElemNT, ElemRep:
					ce.sym = pr.ids[e.Name]
				}
				cp.elems[i] = ce
			}
			pr.prods[id] = append(pr.prods[id], cp)
		}
	}
	pr.flat = flatHeights(pr.prods)
	return pr
}

// flatHeights classifies the symbols for program.flat by a depth-first walk:
// meeting a symbol that is still on the walk's path means a cycle, and
// nothing on a cycle is flat.
func flatHeights(prods [][]cProd) []int {
	const onPath, done = 1, 2
	height := make([]int, len(prods))
	state := make([]int8, len(prods))
	var visit func(id int) int
	visit = func(id int) int {
		switch state[id] {
		case onPath:
			return 0
		case done:
			return height[id]
		}
		state[id] = onPath
		h := 0
		if len(prods[id]) == 1 {
			h = 1
			for _, e := range prods[id][0].elems {
				if e.kind != ElemNT && e.kind != ElemRep {
					continue
				}
				k := visit(e.sym)
				if k == 0 {
					h = 0
					break
				}
				h = max(h, k+1)
			}
		}
		height[id], state[id] = h, done
		return h
	}
	for id := range prods {
		visit(id)
	}
	return height
}
