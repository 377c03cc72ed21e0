package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"qof/internal/algebra"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/rig"
	"qof/internal/text"
)

// bibtexRIG is the RIG of the paper's Section 3.2 example.
func bibtexRIG() *rig.Graph {
	g := rig.New("Reference", "Key", "Authors", "Title", "Editors", "Name", "First_Name", "Last_Name")
	g.AddEdge("Reference", "Key")
	g.AddEdge("Reference", "Authors")
	g.AddEdge("Reference", "Title")
	g.AddEdge("Reference", "Editors")
	g.AddEdge("Authors", "Name")
	g.AddEdge("Editors", "Name")
	g.AddEdge("Name", "First_Name")
	g.AddEdge("Name", "Last_Name")
	return g
}

func chain(t *testing.T, src string) *Chain {
	t.Helper()
	c, ok := FromExpr(algebra.MustParse(src))
	if !ok {
		t.Fatalf("FromExpr(%q) did not recognize a chain", src)
	}
	return c
}

func TestFromExprDesc(t *testing.T) {
	c := chain(t, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	if c.Asc {
		t.Error("desc chain flagged Asc")
	}
	want := []string{"Reference", "Authors", "Name", "Last_Name"}
	for i, n := range want {
		if c.Names[i] != n {
			t.Fatalf("Names = %v", c.Names)
		}
	}
	for _, d := range c.Direct {
		if !d {
			t.Fatalf("Direct = %v", c.Direct)
		}
	}
	if c.Sel == nil || c.Sel.Word != "Chang" || c.Sel.Mode != algebra.SelContains {
		t.Fatalf("Sel = %+v", c.Sel)
	}
	if c.Deepest() != "Last_Name" {
		t.Errorf("Deepest = %q", c.Deepest())
	}
	// Round trip.
	if got := c.Expr().String(); got != `Reference >d Authors >d Name >d contains(Last_Name, "Chang")` {
		t.Errorf("Expr = %q", got)
	}
}

func TestFromExprAsc(t *testing.T) {
	c := chain(t, `Last_Name <d Name <d Authors <d Reference`)
	if !c.Asc {
		t.Error("asc chain not flagged")
	}
	want := []string{"Reference", "Authors", "Name", "Last_Name"}
	for i, n := range want {
		if c.Names[i] != n {
			t.Fatalf("Names = %v (container-first expected)", c.Names)
		}
	}
	if got := c.Expr().String(); got != `Last_Name <d Name <d Authors <d Reference` {
		t.Errorf("Expr = %q", got)
	}
	// With a selection on the deepest name.
	c2 := chain(t, `contains(Last_Name, "Chang") < Authors < Reference`)
	if c2.Sel == nil || c2.Sel.Word != "Chang" {
		t.Fatalf("Sel = %+v", c2.Sel)
	}
	if got := c2.Expr().String(); got != `contains(Last_Name, "Chang") < Authors < Reference` {
		t.Errorf("Expr = %q", got)
	}
}

func TestFromExprRejects(t *testing.T) {
	for _, src := range []string{
		`A + B`,
		`A & B`,
		`(A > B) > C`, // left-nested: not a right-grouped chain
		`contains(A > B, "w")`,
		`A > word("w")`,
		`innermost(A)`,
		`A > contains(B, "w") > C`, // selection not on the deepest name
		`A < B > C`,
		`word("w")`,
	} {
		if _, ok := FromExpr(algebra.MustParse(src)); ok {
			t.Errorf("FromExpr(%q) matched, want reject", src)
		}
	}
}

func TestPaperOptimizationExample(t *testing.T) {
	// Section 3.2: Reference ⊃d Authors ⊃d Name ⊃d σ"Chang"(Last_Name)
	// optimizes to Reference ⊃ Authors ⊃ σ"Chang"(Last_Name).
	g := bibtexRIG()
	c := chain(t, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	opt, log := Optimize(c, g)
	want := `Reference > Authors > contains(Last_Name, "Chang")`
	if got := opt.Expr().String(); got != want {
		t.Fatalf("Optimize = %q, want %q\nlog: %v", got, want, log)
	}
	// Three ⊃d→⊃ conversions plus one shortening.
	var conv, short int
	for _, rw := range log {
		switch rw.Kind {
		case RuleDirectToPlain:
			conv++
		case RuleShorten:
			short++
		}
	}
	if conv != 3 || short != 1 {
		t.Errorf("rewrites = %d conversions, %d shortenings (log %v)", conv, short, log)
	}
	// The shortening removed Name.
	found := false
	for _, rw := range log {
		if rw.Kind == RuleShorten && rw.Via == "Name" {
			found = true
			if !strings.Contains(rw.Reason, "Name") {
				t.Errorf("reason = %q", rw.Reason)
			}
		}
	}
	if !found {
		t.Errorf("no shortening via Name in %v", log)
	}
}

func TestPaperProjectionExample(t *testing.T) {
	// Section 5.2: Last_Name ⊂d Name ⊂d Authors ⊂d Reference optimizes to
	// Last_Name ⊂ Authors ⊂ Reference.
	g := bibtexRIG()
	c := chain(t, `Last_Name <d Name <d Authors <d Reference`)
	opt, _ := Optimize(c, g)
	if got := opt.Expr().String(); got != `Last_Name < Authors < Reference` {
		t.Fatalf("Optimize = %q", got)
	}
}

func TestCannotDropAuthors(t *testing.T) {
	// The paper stresses that the Authors test cannot be removed: paths
	// through Editors would let editor last names slip in.
	g := bibtexRIG()
	c := chain(t, `Reference > Authors > contains(Last_Name, "Chang")`)
	opt, log := Optimize(c, g)
	if !opt.Equal(c) {
		t.Fatalf("already-optimal chain changed: %v (log %v)", opt.Expr(), log)
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	g := bibtexRIG()
	c := chain(t, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	once, _ := Optimize(c, g)
	twice, log := Optimize(once, g)
	if !once.Equal(twice) || len(log) != 0 {
		t.Fatalf("not idempotent: %v -> %v (log %v)", once.Expr(), twice.Expr(), log)
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	g := bibtexRIG()
	c := chain(t, `Reference >d Authors`)
	before := c.Expr().String()
	Optimize(c, g)
	if c.Expr().String() != before {
		t.Fatal("input chain mutated")
	}
}

func TestRightmostRuleWithCycle(t *testing.T) {
	// Self-nested sections: Doc → Section → Section | Para.
	g := rig.New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	g.AddEdge("Section", "Para")
	// Doc ⊃d Section: not the only path (Doc→Section→Section), but every
	// Doc→Section path starts with the edge, and Section is rightmost.
	c := chain(t, `Doc >d contains(Section, "w")`)
	opt, _ := Optimize(c, g)
	if got := opt.Expr().String(); got != `Doc > contains(Section, "w")` {
		t.Fatalf("rightmost rule: %q", got)
	}
	// Mid-chain the same pair must NOT convert.
	c2 := chain(t, `Doc >d Section >d Para`)
	opt2, _ := Optimize(c2, g)
	if opt2.Direct[0] {
		// (Doc,Section) has multiple paths and is not rightmost-adjacent.
		t.Log("pair kept direct as expected")
	} else {
		t.Fatalf("mid-chain conversion applied unsoundly: %v", opt2.Expr())
	}
	// (Section, Para): Section→Para edge is not the only path
	// (Section→Section→Para); Para rightmost, but paths may start with
	// (Section, Section). Must stay direct.
	if !opt2.Direct[1] {
		t.Fatalf("Section >d Para converted unsoundly: %v", opt2.Expr())
	}
}

func TestEqualsSelectionBlocksRightmostRule(t *testing.T) {
	g := rig.New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	// contains: rule applies (word containment is monotone).
	c := chain(t, `Doc >d contains(Section, "w")`)
	if opt, _ := Optimize(c, g); opt.Direct[0] {
		t.Fatal("contains selection should allow the rightmost rule")
	}
	// equals: rule must be suppressed.
	c2 := chain(t, `Doc >d equals(Section, "w")`)
	if opt, _ := Optimize(c2, g); !opt.Direct[0] {
		t.Fatal("equals selection must block the rightmost rule")
	}
	// The only-path case is fine even with equals.
	g2 := rig.New()
	g2.AddEdge("Doc", "Section")
	c3 := chain(t, `Doc >d equals(Section, "w")`)
	if opt, _ := Optimize(c3, g2); opt.Direct[0] {
		t.Fatal("only-path conversion is sound under equals")
	}
}

func TestAscRightmostRule(t *testing.T) {
	// Projection chain: Para ⊂d Section — every Section→Para path ends
	// with the edge even though Sections self-nest, so the conversion is
	// allowed at the written-rightmost (container) end.
	g := rig.New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	g.AddEdge("Section", "Para")
	c := chain(t, `Para <d Section`)
	opt, _ := Optimize(c, g)
	if opt.Direct[0] {
		t.Fatalf("Para <d Section should convert: %v", opt.Expr())
	}
	// Doc ⊂-side: Section ⊂d Doc has paths Doc→Section→Section ending
	// with (Section, Section) ≠ (Doc, Section): must stay direct.
	c2 := chain(t, `Section <d Doc`)
	opt2, _ := Optimize(c2, g)
	if !opt2.Direct[0] {
		t.Fatalf("Section <d Doc converted unsoundly: %v", opt2.Expr())
	}
}

func TestSelfNestedShortenBlocked(t *testing.T) {
	g := rig.New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	g.AddEdge("Section", "Para")
	// Doc ⊃ Section ⊃ Section selects sections nested at depth ≥ 2; it
	// must NOT collapse to Doc ⊃ Section (depth ≥ 1).
	c := chain(t, `Doc > Section > Section`)
	opt, log := Optimize(c, g)
	if !opt.Equal(c) {
		t.Fatalf("self-nested chain shortened: %v (log %v)", opt.Expr(), log)
	}
	// But with a genuinely interposed node the rule still fires.
	g2 := rig.New()
	g2.AddEdge("A", "B")
	g2.AddEdge("B", "C")
	c2 := chain(t, `A > B > C`)
	opt2, _ := Optimize(c2, g2)
	if got := opt2.Expr().String(); got != `A > C` {
		t.Fatalf("A > B > C: %q", got)
	}
}

func TestTrivial(t *testing.T) {
	g := bibtexRIG()
	// The paper's e3 = Reference ⊃ Title ⊃ Last_Name is always empty.
	c := chain(t, `Reference > Title > Last_Name`)
	triv, why := Trivial(c, g)
	if !triv {
		t.Fatal("e3 should be trivial")
	}
	if !strings.Contains(why.String(), "Title") || !strings.Contains(why.String(), "Last_Name") {
		t.Errorf("reason = %v", why)
	}
	// 3.3(i): ⊃d with no edge.
	c2 := chain(t, `Reference >d Name`)
	triv2, why2 := Trivial(c2, g)
	if !triv2 || !why2.Direct {
		t.Fatalf("Reference >d Name: trivial=%v why=%v", triv2, why2)
	}
	// ...while Reference ⊃ Name is fine (path exists).
	c3 := chain(t, `Reference > Name`)
	if triv3, _ := Trivial(c3, g); triv3 {
		t.Fatal("Reference > Name is not trivial")
	}
	if _, why4 := Trivial(c3, g); why4.String() != "not trivial" {
		t.Errorf("non-trivial reason = %v", why4)
	}
}

func TestOptimizeExprComposite(t *testing.T) {
	g := bibtexRIG()
	src := `(Reference >d Authors >d Name >d contains(Last_Name, "Chang")) + (Reference >d Editors >d Name >d contains(Last_Name, "Corliss"))`
	e, log := OptimizeExpr(algebra.MustParse(src), g)
	want := algebra.MustParse(`(Reference > Authors > contains(Last_Name, "Chang")) + (Reference > Editors > contains(Last_Name, "Corliss"))`)
	if !algebra.Equal(e, want) {
		t.Fatalf("OptimizeExpr = %q, want %q", e, want)
	}
	if len(log) != 8 {
		t.Errorf("rewrites = %d, want 8 (3 conversions + 1 shortening per chain)", len(log))
	}
	// Non-chain expressions pass through untouched.
	e2, log2 := OptimizeExpr(algebra.MustParse(`innermost(word("x"))`), g)
	if e2.String() != `innermost(word("x"))` || len(log2) != 0 {
		t.Errorf("passthrough: %v %v", e2, log2)
	}
}

func TestTrivialExpr(t *testing.T) {
	g := bibtexRIG()
	cases := []struct {
		src  string
		want bool
	}{
		{`Reference > Title > Last_Name`, true},
		{`(Reference > Title > Last_Name) & (Reference > Authors)`, true},
		{`(Reference > Authors) & (Reference > Title > Last_Name)`, true},
		{`(Reference > Title > Last_Name) + (Reference > Authors)`, false},
		{`(Reference > Title > Last_Name) + (Title > Key)`, true},
		{`(Reference > Title > Last_Name) - Reference`, true},
		{`Reference - (Reference > Title > Last_Name)`, false},
		{`innermost(Reference > Title > Last_Name)`, true},
		{`contains(Reference > Title > Last_Name, "w")`, true},
		{`Reference > Authors`, false},
	}
	for _, tc := range cases {
		got, _ := TrivialExpr(algebra.MustParse(tc.src), g)
		if got != tc.want {
			t.Errorf("TrivialExpr(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(nil, nil, nil, false); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewChain([]string{"A", "B"}, []bool{true, false}, nil, false); err == nil {
		t.Error("mismatched operator count accepted")
	}
	c, err := NewChain([]string{"A", "B"}, []bool{true}, nil, false)
	if err != nil || c.String() != "A >d B" {
		t.Errorf("NewChain: %v %v", c, err)
	}
}

func TestRewriteString(t *testing.T) {
	g := bibtexRIG()
	c := chain(t, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	_, log := Optimize(c, g)
	for _, rw := range log {
		s := rw.String()
		if !strings.Contains(s, "3.5") {
			t.Errorf("rewrite string %q", s)
		}
	}
}

// --- Soundness: optimized chains agree with originals on instances that
// --- satisfy the RIG (Definition 3.2), using schema-shaped instances.

// genInstance builds a random properly nested instance that satisfies g by
// growing a forest from root: each region's children are drawn from its RIG
// successors and strictly nested inside it.
func genInstance(rng *rand.Rand, g *rig.Graph, root string, span int) *index.Instance {
	doc := text.NewDocument("gen", strings.Repeat("a b c d ", (span+7)/8)[:span])
	groups := make(map[string][]region.Region)
	var build func(name string, lo, hi, depth int)
	build = func(name string, lo, hi, depth int) {
		groups[name] = append(groups[name], region.Of(lo, hi))
		succ := g.Successors(name)
		if len(succ) == 0 || depth > 4 || hi-lo < 6 {
			return
		}
		// Carve up to 3 disjoint child slots strictly inside (lo, hi).
		cur := lo + 1
		for k := 0; k < 3 && cur+2 < hi-1; k++ {
			w := 2 + rng.Intn(hi-1-cur-2+1)
			if w > hi-1-cur {
				w = hi - 1 - cur
			}
			if rng.Intn(4) > 0 {
				build(succ[rng.Intn(len(succ))], cur, cur+w, depth+1)
			}
			cur += w + 1
		}
	}
	n := 1 + rng.Intn(3)
	seg := span / n
	for i := 0; i < n; i++ {
		build(root, i*seg, i*seg+seg-1, 0)
	}
	sets := make(map[string]region.Set)
	for _, node := range g.Nodes() {
		sets[node] = region.FromRegions(groups[node])
	}
	return index.New(index.NewWordIndex(doc), sets, nil)
}

// randomChain builds a random chain along RIG paths from root so that it is
// non-trivial by construction.
func randomChain(rng *rand.Rand, g *rig.Graph, root string, asc bool) *Chain {
	names := []string{root}
	cur := root
	for len(names) < 2+rng.Intn(3) {
		succ := g.Successors(cur)
		if len(succ) == 0 {
			break
		}
		cur = succ[rng.Intn(len(succ))]
		names = append(names, cur)
	}
	if len(names) < 2 {
		names = append(names, g.Successors(root)[0])
	}
	direct := make([]bool, len(names)-1)
	for i := range direct {
		direct[i] = rng.Intn(2) == 0
	}
	var sel *Selection
	switch rng.Intn(3) {
	case 0:
		sel = &Selection{Mode: algebra.SelContains, Word: "b"}
	case 1:
		sel = &Selection{Mode: algebra.SelEquals, Word: "a b"}
	}
	c, _ := NewChain(names, direct, sel, asc)
	return c
}

func soundnessRIGs() map[string]*rig.Graph {
	cyclic := rig.New()
	cyclic.AddEdge("Doc", "Section")
	cyclic.AddEdge("Section", "Section")
	cyclic.AddEdge("Section", "Para")
	cyclic.AddEdge("Doc", "Para")
	diamond := rig.New()
	diamond.AddEdge("R", "A")
	diamond.AddEdge("R", "B")
	diamond.AddEdge("A", "N")
	diamond.AddEdge("B", "N")
	diamond.AddEdge("N", "L")
	return map[string]*rig.Graph{
		"bibtex":  bibtexRIG(),
		"cyclic":  cyclic,
		"diamond": diamond,
	}
}

func rootOf(name string) string {
	switch name {
	case "bibtex":
		return "Reference"
	case "cyclic":
		return "Doc"
	default:
		return "R"
	}
}

func TestOptimizeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for gname, g := range soundnessRIGs() {
		root := rootOf(gname)
		for trial := 0; trial < 60; trial++ {
			in := genInstance(rng, g, root, 120)
			if err := g.Satisfies(in); err != nil {
				t.Fatalf("%s trial %d: generator violates RIG: %v", gname, trial, err)
			}
			for q := 0; q < 6; q++ {
				c := randomChain(rng, g, root, q%2 == 1)
				opt, log := Optimize(c, g)
				ev := algebra.NewEvaluator(in)
				a, err := ev.Eval(c.Expr())
				if err != nil {
					t.Fatalf("%s: eval original %v: %v", gname, c.Expr(), err)
				}
				b, err := ev.Eval(opt.Expr())
				if err != nil {
					t.Fatalf("%s: eval optimized %v: %v", gname, opt.Expr(), err)
				}
				if !a.Equal(b) {
					t.Fatalf("%s trial %d: %v != optimized %v\noriginal  %v\noptimized %v\nrewrites %v\nnames %v",
						gname, trial, a, b, c.Expr(), opt.Expr(), log, in.Names())
				}
			}
		}
	}
}

func TestTrivialSoundness(t *testing.T) {
	// Every chain flagged trivial evaluates to ∅ on satisfying instances.
	rng := rand.New(rand.NewSource(35))
	g := bibtexRIG()
	allNames := g.Nodes()
	for trial := 0; trial < 80; trial++ {
		in := genInstance(rng, g, "Reference", 120)
		names := []string{allNames[rng.Intn(len(allNames))], allNames[rng.Intn(len(allNames))]}
		if rng.Intn(2) == 0 {
			names = append(names, allNames[rng.Intn(len(allNames))])
		}
		direct := make([]bool, len(names)-1)
		for i := range direct {
			direct[i] = rng.Intn(2) == 0
		}
		c, _ := NewChain(names, direct, nil, false)
		triv, _ := Trivial(c, g)
		if !triv {
			continue
		}
		got, err := algebra.NewEvaluator(in).Eval(c.Expr())
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsEmpty() {
			t.Fatalf("trivial chain %v evaluated to %v", c.Expr(), got)
		}
	}
}

// TestConfluence applies the rewrite rules in random order and checks the
// normal form matches Optimize's — Theorem 3.6's finite Church–Rosser
// property.
func TestConfluence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for gname, g := range soundnessRIGs() {
		root := rootOf(gname)
		for trial := 0; trial < 200; trial++ {
			c := randomChain(rng, g, root, rng.Intn(2) == 1)
			want, _ := Optimize(c, g)
			got := randomOrderOptimize(rng, c, g)
			if !want.Equal(got) {
				t.Fatalf("%s trial %d: %v:\n deterministic %v\n random-order  %v",
					gname, trial, c.Expr(), want.Expr(), got.Expr())
			}
		}
	}
}

// randomOrderOptimize repeatedly applies a randomly chosen applicable
// rewrite until none applies.
func randomOrderOptimize(rng *rand.Rand, c *Chain, g *rig.Graph) *Chain {
	cur := c.Clone()
	for {
		type move struct {
			conv bool
			i    int
		}
		var moves []move
		for i := range cur.Direct {
			if cur.Direct[i] {
				if _, ok := directToPlain(cur, i, g); ok {
					moves = append(moves, move{conv: true, i: i})
				}
			}
		}
		for i := 0; i+2 < len(cur.Names); i++ {
			if _, ok := shortenAt(cur, i, g); ok {
				moves = append(moves, move{i: i})
			}
		}
		if len(moves) == 0 {
			return cur
		}
		m := moves[rng.Intn(len(moves))]
		if m.conv {
			cur.Direct[m.i] = false
		} else {
			removeAt(cur, m.i+1)
		}
	}
}

func BenchmarkOptimizeChain(b *testing.B) {
	g := bibtexRIG()
	c := chainB(b, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(c, g)
	}
}

func chainB(b *testing.B, src string) *Chain {
	b.Helper()
	c, ok := FromExpr(algebra.MustParse(src))
	if !ok {
		b.Fatal("not a chain")
	}
	return c
}
