package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as a file containing one function and returns its
// body.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func build(t *testing.T, body string) *CFG {
	t.Helper()
	return New(parseBody(t, body))
}

// reaches reports whether to is reachable from from over Succs.
func reaches(from, to *Block) bool {
	seen := make(map[*Block]bool)
	var walk func(*Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\ny := x\n_ = y")
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("entry has %d nodes, want 3\n%s", len(g.Entry.Nodes), g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable\n%s", g)
	}
}

func TestIfElse(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n x = 2\n} else {\n x = 3\n}\n_ = x")
	// Entry ends with the condition: two successors, then/else.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("entry succs = %d, want 2\n%s", len(g.Entry.Succs), g)
	}
	then, els := g.Entry.Succs[0], g.Entry.Succs[1]
	if len(then.Nodes) != 1 || len(els.Nodes) != 1 {
		t.Errorf("branch blocks: %d/%d nodes, want 1/1\n%s", len(then.Nodes), len(els.Nodes), g)
	}
	if !reaches(then, g.Exit) || !reaches(els, g.Exit) {
		t.Errorf("branches must rejoin and exit\n%s", g)
	}
}

func TestIfWithoutElseFallsThrough(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n x = 2\n}\n_ = x")
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("entry succs = %d, want 2 (then + fallthrough)\n%s", len(g.Entry.Succs), g)
	}
	if g.Entry.Succs[0] == g.Entry.Succs[1] {
		t.Errorf("true and false edges must differ\n%s", g)
	}
}

func TestForLoop(t *testing.T) {
	g := build(t, "for i := 0; i < 10; i++ {\n _ = i\n}\n_ = 1")
	var head *Block
	for _, b := range g.Blocks {
		if b.Head {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no loop head marked\n%s", g)
	}
	if len(head.Succs) != 2 {
		t.Errorf("loop head succs = %d, want 2 (body, after)\n%s", len(head.Succs), g)
	}
	if !reaches(head.Succs[0], head) {
		t.Errorf("body must loop back to head\n%s", g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable\n%s", g)
	}
}

func TestInfiniteLoopWithBreak(t *testing.T) {
	g := build(t, "for {\n if true {\n  break\n }\n}\n_ = 1")
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("break must reach exit\n%s", g)
	}
	// Without the break the after-block is dead.
	g2 := build(t, "for {\n _ = 1\n}\n_ = 2")
	dead := 0
	for _, b := range g2.Blocks {
		if !b.Reachable() {
			dead++
		}
	}
	if dead == 0 {
		t.Errorf("code after for{} should be unreachable\n%s", g2)
	}
}

func TestRangeLoop(t *testing.T) {
	g := build(t, "xs := []int{1}\nfor i := range xs {\n _ = i\n}\n_ = 1")
	var head *Block
	for _, b := range g.Blocks {
		if b.Head {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no loop head for range\n%s", g)
	}
	if len(head.Succs) != 2 {
		t.Errorf("range head has %d succs, want 2 (body, after)\n%s", len(head.Succs), g)
	}
}

func TestContinueTargetsPost(t *testing.T) {
	g := build(t, "for i := 0; i < 10; i++ {\n if i == 3 {\n  continue\n }\n _ = i\n}")
	// Every cycle must pass through the post statement (i++): find the post
	// block (single node, single succ = head) and check the continue edge
	// lands there, not on the head.
	var head *Block
	for _, b := range g.Blocks {
		if b.Head {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no head")
	}
	for _, p := range head.Preds {
		if p == g.Entry {
			continue
		}
		if len(p.Nodes) == 0 {
			t.Errorf("head pred b%d has no nodes; continue should route through post\n%s", p.Index, g)
		}
	}
}

func TestSwitchWithFallthroughAndDefault(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\n x = 10\n fallthrough\ncase 2:\n x = 20\ndefault:\n x = 30\n}\n_ = x")
	// Entry must fan out to all three case blocks but not to after (there
	// is a default).
	if len(g.Entry.Succs) != 3 {
		t.Errorf("switch dispatch has %d succs, want 3\n%s", len(g.Entry.Succs), g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable\n%s", g)
	}
}

func TestSwitchWithoutDefaultHasSkipEdge(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\n x = 10\n}\n_ = x")
	if len(g.Entry.Succs) != 2 {
		t.Errorf("switch without default: %d succs, want 2 (case + skip)\n%s", len(g.Entry.Succs), g)
	}
}

func TestSelect(t *testing.T) {
	g := build(t, "a := make(chan int)\nb := make(chan int)\nselect {\ncase <-a:\n _ = 1\ncase b <- 2:\n _ = 2\n}\n_ = 3")
	if len(g.Entry.Succs) != 2 {
		t.Errorf("select has %d succs, want one per comm clause\n%s", len(g.Entry.Succs), g)
	}
}

func TestGotoFormsLoop(t *testing.T) {
	g := build(t, "i := 0\nagain:\ni++\nif i < 10 {\n goto again\n}")
	var heads int
	for _, b := range g.Blocks {
		if b.Head {
			heads++
		}
	}
	if heads == 0 {
		t.Errorf("goto loop must mark a head\n%s", g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, "outer:\nfor {\n for {\n  break outer\n }\n}\n_ = 1")
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("labeled break must escape both loops\n%s", g)
	}
}

func TestReturnCutsFlow(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n return\n}\n_ = x")
	// The then-branch must edge to Exit and the code after the return (none
	// here beyond the synthesized block) must not re-enter the join.
	then := g.Entry.Succs[0]
	found := false
	for _, s := range then.Succs {
		if s == g.Exit {
			found = true
		}
	}
	if !found {
		t.Errorf("return must edge to exit\n%s", g)
	}
}

func TestPanicCutsFlow(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n panic(\"no\")\n}\n_ = x")
	then := g.Entry.Succs[0]
	found := false
	for _, s := range then.Succs {
		if s == g.Exit {
			found = true
		}
	}
	if !found {
		t.Errorf("panic must edge to exit\n%s", g)
	}
}

func TestFuncLitIsOpaque(t *testing.T) {
	g := build(t, "f := func() {\n for {\n }\n}\nf()")
	for _, b := range g.Blocks {
		if b.Head {
			t.Errorf("function literal body must not contribute blocks\n%s", g)
		}
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("nil body: entry must reach exit")
	}
}

func TestStringRendering(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	s := g.String()
	if !strings.Contains(s, "entry") || !strings.Contains(s, "exit") {
		t.Errorf("String() = %q, want entry/exit markers", s)
	}
}

// --- dataflow solver tests ---

// reachFlow is a trivial forward may-analysis: "has a call to poll() been
// seen on some path". States: 0 bottom, 1 no, 2 yes, merge = max.
type reachFlow struct{}

func (reachFlow) Bottom() int   { return 0 }
func (reachFlow) Boundary() int { return 1 }
func (reachFlow) Merge(a, b int) int {
	if a > b {
		return a
	}
	return b
}
func (reachFlow) Equal(a, b int) bool { return a == b }
func (reachFlow) Widen(_, m int) int  { return m }
func (reachFlow) Transfer(b *Block, s int) int {
	if s == 0 {
		return 0
	}
	for _, n := range b.Nodes {
		seen := false
		ast.Inspect(n, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "poll" {
					seen = true
				}
			}
			return true
		})
		if seen {
			return 2
		}
	}
	return s
}

func TestForwardSolve(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n poll()\n}\n_ = x")
	res := Solve[int](g, reachFlow{})
	// Exit merges the polled and unpolled paths: may-analysis says 2.
	if got := res.In[g.Exit]; got != 2 {
		t.Errorf("may-reach at exit = %d, want 2\n%s", got, g)
	}
}

// mustFlow is the must-variant: merge = min (with bottom as identity).
type mustFlow struct{ reachFlow }

func (mustFlow) Merge(a, b int) int {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a < b {
		return a
	}
	return b
}

func TestMustSolveJoins(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n poll()\n}\n_ = x")
	res := Solve[int](g, mustFlow{})
	if got := res.In[g.Exit]; got != 1 {
		t.Errorf("must-reach at exit = %d, want 1 (one path unpolled)\n%s", got, g)
	}
	g2 := build(t, "x := 1\nif x > 0 {\n poll()\n} else {\n poll()\n}\n_ = x")
	res2 := Solve[int](g2, mustFlow{})
	if got := res2.In[g2.Exit]; got != 2 {
		t.Errorf("must-reach at exit = %d, want 2 (both paths polled)\n%s", got, g2)
	}
}

func TestSolveLoopFixpoint(t *testing.T) {
	g := build(t, "for i := 0; i < 10; i++ {\n poll()\n}\n_ = 1")
	res := Solve[int](g, reachFlow{})
	if got := res.In[g.Exit]; got != 2 {
		t.Errorf("loop poll must reach exit: got %d\n%s", got, g)
	}
}

// counterFlow counts Lock-like calls without an upper bound; only widening
// terminates it on a loop. Widen caps at 99.
type counterFlow struct{}

func (counterFlow) Bottom() int         { return -1 }
func (counterFlow) Boundary() int       { return 0 }
func (counterFlow) Equal(a, b int) bool { return a == b }
func (counterFlow) Merge(a, b int) int {
	if a == -1 {
		return b
	}
	if b == -1 {
		return a
	}
	if a > b {
		return a
	}
	return b
}
func (counterFlow) Widen(_, _ int) int { return 99 }
func (counterFlow) Transfer(b *Block, s int) int {
	if s == -1 {
		return -1
	}
	for _, n := range b.Nodes {
		cnt := 0
		ast.Inspect(n, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "lock" {
					cnt++
				}
			}
			return true
		})
		s += cnt
	}
	return s
}

func TestWideningTerminates(t *testing.T) {
	// lock() inside an unconditional loop: the counter grows every trip;
	// without widening the solver would iterate forever. The head is
	// widened to 99 and the body's lock() bumps it once more on the way
	// out, so the stable exit state is 100.
	g := build(t, "for {\n lock()\n if done() {\n  break\n }\n}\n_ = 1")
	res := Solve[int](g, counterFlow{})
	if got := res.In[g.Exit]; got != 100 {
		t.Errorf("widened counter at exit = %d, want 100", got)
	}
}
