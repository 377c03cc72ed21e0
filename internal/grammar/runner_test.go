package grammar

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qof/internal/db"
	"qof/internal/qerr"
	"qof/internal/text"
)

// nestedChoice builds A → Z | Open A ")" "a" | Open A ")" "b" | Open A ")" "c"
// with Z = z and Open = (. On "(((z)c)c)c" the "a" and "b" alternatives of
// every level parse the whole inner A before failing on their last literal,
// so a parser without a memo parses the innermost A 3^depth times. The "c"
// alternative is the last, so it recurses with no choice point open: a memo
// that were dropped whenever the outermost choice point closes would forget
// the inner A between the alternatives of every level, and the parse would
// be quadratic.
//
// Every alternative starts with a terminal, so each parseProd invocation
// runs exactly one of the two matchers first; they count into *prodCalls.
func nestedChoice(t testing.TB, prodCalls *int) *Grammar {
	t.Helper()
	g := NewGrammar("A")
	g.MustAddTerminal("Z", `z`)
	g.MustAddTerminal("Open", `\(`)
	for name, m := range g.terms {
		g.terms[name] = func(s string) int {
			*prodCalls++
			return m(s)
		}
	}
	g.AddProduction("A", Term("Z"))
	for _, tail := range []string{"a", "b", "c"} {
		g.AddProduction("A", Term("Open"), NT("A"), Lit(")"), Lit(tail))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func nestedInput(depth int) string {
	return strings.Repeat("(", depth) + "z" + strings.Repeat(")c", depth)
}

// TestPackratLinear pins the linear-time guarantee by counting work, not
// time: parseProd invocations grow by the same amount for every added level
// of nesting. Under a read set recognition is the same work: the count is
// the full parse's whether the set reads two levels of A and then runs
// quiet, reads from the third level down, or reads nothing.
func TestPackratLinear(t *testing.T) {
	var prodCalls int
	g := nestedChoice(t, &prodCalls)
	reads := map[string]*ReadSet{"everything": everything}
	for name, path := range map[string][]string{"nothing": {"Z"}, "A.A.A": {"A", "A", "A"}} {
		rs, err := g.CompileReads("A", [][]db.Step{db.PathOf(path...)})
		if err != nil {
			t.Fatal(err)
		}
		reads[name] = rs
	}
	if !reads["nothing"].Empty() || reads["A.A.A"].String() != "A.A.A" {
		t.Fatalf("read sets compiled to %q and %q", reads["nothing"], reads["A.A.A"])
	}
	calls := func(depth int, need *ReadSet) int {
		t.Helper()
		prodCalls = 0
		doc := text.NewDocument("nested", nestedInput(depth))
		if _, err := g.parseWith(new(runner), doc, "A", 0, doc.Len(), need); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return prodCalls
	}
	c19, c20, c40, c80 := calls(19, everything), calls(20, everything), calls(40, everything), calls(80, everything)
	if c40-c20 != 20*(c20-c19) || c80-c40 != 2*(c40-c20) {
		t.Errorf("parseProd calls are not linear in the nesting depth: %d, %d, %d at depths 20, 40, 80", c20, c40, c80)
	}
	if perLevel := (c80 - c40) / 40; perLevel > 8 {
		t.Errorf("%d parseProd calls per nesting level; 4 alternatives tried at most twice each is 8", perLevel)
	}
	for name, need := range reads {
		if got := calls(80, need); got != c80 {
			t.Errorf("reading %s: %d parseProd calls at depth 80, the full parse makes %d", name, got, c80)
		}
	}
}

// TestMemoStaysSmall: the table is dropped whenever every entry lies behind
// a committed position, so on a document that is one long repetition it
// holds about one element's entries, not the document's — under a read set
// too, where most entries record a match and no node.
func TestMemoStaysSmall(t *testing.T) {
	g := miniBibtex(t)
	doc := text.NewDocument("big.bib", strings.Repeat(miniDoc, 500))
	keys, err := g.CompileReads(g.Root(), [][]db.Step{db.PathOf("Reference", "Key")})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		need     *ReadSet
		minNodes int
	}{{everything, 20000}, {keys, 3000}} {
		r := new(runner)
		tree, err := g.parseWith(r, doc, g.Root(), 0, doc.Len(), c.need)
		if err != nil {
			t.Fatal(err)
		}
		if nodes := tree.Count(); nodes < c.minNodes || len(r.memo) > 256 {
			t.Errorf("reading %q: memo table has %d slots after parsing %d nodes; it should hold one Reference's worth", c.need, len(r.memo), nodes)
		}
	}
}

// TestPoolHygiene: a pooled runner carries nothing from one parse into the
// next — not after a success, not after a failure part-way through.
func TestPoolHygiene(t *testing.T) {
	g, doc, tree := parseMini(t)
	refs := tree.Find("Reference")
	a, b := refs[0], refs[1]
	first, err := g.ParseValue(doc, "Reference", a.Start, a.End, nil)
	if err != nil {
		t.Fatal(err)
	}
	// B fails after most of a Reference has been parsed and memoized.
	_, err = g.ParseValue(doc, "Reference", b.Start, b.End-3, nil)
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("truncated region: %v", err)
	}
	again, err := g.ParseValue(doc, "Reference", a.Start, a.End, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("value changed after a failed parse:\n  %s\n  %s", first, again)
	}
	if want := BuildValue(a, doc.Content()); !reflect.DeepEqual(want, again) {
		t.Errorf("pooled value\n  %s\nunpooled value\n  %s", again, want)
	}
	// The error must not alias the runner's reused expected list.
	before := append([]string(nil), perr.Expected...)
	if _, err := g.ParseValue(doc, "Reference", a.Start+1, a.End, nil); err == nil {
		t.Fatal("shifted region parsed")
	}
	if !reflect.DeepEqual(before, perr.Expected) {
		t.Errorf("an earlier ParseError changed from %v to %v", before, perr.Expected)
	}
}

// TestParseValueConcurrent shares one Grammar between goroutines that parse
// different regions, some failing; run it under -race.
func TestParseValueConcurrent(t *testing.T) {
	g := miniBibtex(t)
	doc := text.NewDocument("shared.bib", strings.Repeat(miniDoc, 20))
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	refs := tree.Find("Reference")
	content := doc.Content()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ref := refs[(w*7+i)%len(refs)]
				if i%5 == 4 {
					if _, err := g.ParseValue(doc, "Reference", ref.Start, ref.End-2, nil); err == nil {
						t.Error("truncated region parsed")
					}
					continue
				}
				v, err := g.ParseValue(doc, "Reference", ref.Start, ref.End, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if want := BuildValue(ref, content); !reflect.DeepEqual(want, v) {
					t.Errorf("goroutine %d: %s, want %s", w, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFirstUseConcurrent: the parser validates on first use, and nothing
// makes a schema author call Validate before handing the grammar to parallel
// phase-2 workers (compile.NewCatalog does not). Eight goroutines meet a
// grammar nobody has compiled: it is compiled once, and no goroutine builds
// a value from a half-published shape. Run it under -race.
func TestFirstUseConcurrent(t *testing.T) {
	ref := miniBibtex(t)
	doc := text.NewDocument("first.bib", strings.Repeat(miniDoc, 4))
	tree, err := ref.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	refs := tree.Find("Reference")
	content := doc.Content()
	for round := 0; round < 20; round++ {
		g := miniBibtexUnvalidated()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				n := refs[w%len(refs)]
				v, err := g.ParseValue(doc, "Reference", n.Start, n.End, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if want := BuildValue(n, content); !reflect.DeepEqual(want, v) {
					t.Errorf("round %d, goroutine %d: %s, want %s", round, w, v, want)
				}
				// BuildValue on an unpooled tree of the same fresh grammar.
				if tree, err := g.ParseAs(doc, "Reference", int32(n.Start), int32(n.End)); err != nil {
					t.Error(err)
				} else if got := BuildValue(tree, content); !reflect.DeepEqual(got, v) {
					t.Errorf("round %d, goroutine %d: ParseAs+BuildValue %s, ParseValue %s", round, w, got, v)
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}

// TestFlatDepthBoundary: S → "(" S ")" | F nests S as deep as the input's
// parentheses, then enters the flat F → "<" G ">" (height 2) quietly. At
// every depth around the limit the parse that recognises F on its own ends
// as the general runner's does: F and G fit up to maxDepth−height, G trips
// the limit one level deeper and F itself at maxDepth.
func TestFlatDepthBoundary(t *testing.T) {
	g := NewGrammar("S")
	g.MustAddTerminal("W", `[a-z]+`)
	g.AddProduction("S", Lit("("), NT("S"), Lit(")"))
	g.AddProduction("S", NT("F"))
	g.AddProduction("F", Lit("<"), NT("G"), Lit(">"))
	g.AddProduction("G", Term("W"))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, _ := g.program()
	h := prog.flat[prog.ids["F"]]
	if h != 2 || prog.flat[prog.ids["S"]] != 0 {
		t.Fatalf("F has height %d and S %d, want 2 and 0 (not flat)", h, prog.flat[prog.ids["S"]])
	}
	quiet, err := g.CompileReads("S", [][]db.Step{db.PathOf("Nope")})
	if err != nil {
		t.Fatal(err)
	}
	for d := maxDepth - h - 1; d <= maxDepth; d++ {
		// The innermost S is entered at depth d-1 and F at d.
		doc := text.NewDocument("deep", strings.Repeat("(", d-1)+"<x>"+strings.Repeat(")", d-1))
		want, werr := g.parseWith(&runner{general: true}, doc, "S", 0, doc.Len(), quiet)
		got, gerr := g.parseWith(new(runner), doc, "S", 0, doc.Len(), quiet)
		if !reflect.DeepEqual(werr, gerr) || (want == nil) != (got == nil) {
			t.Fatalf("F at depth %d: general runner %v, %v; fused %v, %v", d, want, werr, got, gerr)
		}
		var derr *DepthError
		switch {
		case d <= maxDepth-h && werr != nil:
			t.Errorf("F at depth %d: %v, want a parse", d, werr)
		case d == maxDepth-h+1 && (!errors.As(werr, &derr) || derr.Sym != "G"):
			t.Errorf("F at depth %d: %v, want the limit tripped entering G", d, werr)
		case d == maxDepth && (!errors.As(werr, &derr) || derr.Sym != "F"):
			t.Errorf("F at depth %d: %v, want the limit tripped entering F", d, werr)
		}
	}
}

// TestLeftRecursionIsAnError: A → A "x" recurses without consuming input.
// Every entry point reports it as a typed budget error naming the symbol
// and the offset, and the grammar still parses what does not reach the
// recursion.
func TestLeftRecursionIsAnError(t *testing.T) {
	g := NewGrammar("S")
	g.MustAddTerminal("W", `[a-z]+`)
	g.AddProduction("S", Lit("["), Term("W"), Lit("]"))
	g.AddProduction("S", Lit("{"), NT("A"), Lit("}"))
	g.AddProduction("A", NT("A"), Lit("x"))
	g.AddProduction("A", Lit("y"))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	doc := text.NewDocument("lr", "  {yx}")
	check := func(name string, err error) {
		t.Helper()
		var derr *DepthError
		if !errors.As(err, &derr) || !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Fatalf("%s: error %v (%T), want a DepthError in the ErrBudgetExceeded family", name, err, err)
		}
		if derr.Sym != "A" || derr.Offset != 3 || derr.Doc != "lr" {
			t.Errorf("%s: %+v, want symbol A at offset 3 of lr", name, derr)
		}
	}
	_, err := g.ParseAs(doc, "S", 0, int32(doc.Len()))
	check("ParseAs", err)
	_, err = g.ParseValue(doc, "S", 0, doc.Len(), nil)
	check("ParseValue", err)
	_, _, err = g.BuildInstanceContext(context.Background(), doc, IndexSpec{})
	check("BuildInstanceContext", err)

	ok := text.NewDocument("ok", "[abc]")
	if _, err := g.ParseValue(ok, "S", 0, ok.Len(), nil); err != nil {
		t.Errorf("after the overflow: %v", err)
	}
}
