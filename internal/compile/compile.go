// Package compile translates XSQL queries over file-backed database views
// into optimized region-algebra expressions, implementing Sections 5 and 6
// of the paper:
//
//   - a simple selection "SELECT r FROM R r WHERE r.p = w" becomes the
//     inclusion chain A1 ⊃d A2 ⊃d … ⊃d σw(An) along the RIG path matched by
//     p, which is then optimized (Section 5.1);
//   - boolean criteria compose chains with ∪, ∩ and − (Section 5.2);
//   - value comparisons between two paths cannot be answered by the index
//     and become residual joins, with existence chains narrowing the
//     candidates (Section 5.2);
//   - path variables translate *X to plain ⊃ and enumerate ?X assignments
//     from the RIG (Section 5.3);
//   - under partial indexing the chain is contracted to the indexed names,
//     its operators still ⊃d (direct inclusion sees only indexed regions),
//     optimized against the projected RIG, and classified as exact or
//     superset via the unique-realizing-path condition (Sections 6.1, 6.3).
//
// The compiler never evaluates anything: it produces a Plan that the engine
// package executes in up to two phases (index evaluation, then parsing and
// filtering of candidate regions).
package compile

import (
	"fmt"
	"strings"
	"sync"

	"qof/internal/algebra"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/optimizer"
	"qof/internal/rig"
	"qof/internal/text"
	"qof/internal/xsql"
)

// enumCap bounds the number of concrete assignments enumerated for a ?X
// path variable; beyond it the compiler falls back to the star (superset)
// translation.
const enumCap = 64

// Catalog binds the query language to a structuring schema: the grammar,
// its derived RIG, and the mapping from class names to the non-terminals
// whose regions are the class objects. It also precomputes two grammar
// analyses the compiler needs to classify selections as exact:
//
//   - faithful(A): every production of A is a single bare terminal, so A's
//     region text IS its database value and equality selection on the
//     region is exact;
//   - literalTokens(A): the word tokens that can appear in A's region text
//     coming from production literals (of A or any non-terminal reachable
//     below it) rather than from data — a word-containment selection for a
//     word in this set may match markup, so it is only a superset.
type Catalog struct {
	Grammar *grammar.Grammar
	RIG     *rig.Graph
	classes map[string]string

	faithful  map[string]bool
	litTokens map[string]map[string]bool

	// rewrite, when non-nil, replaces the optimizer applied to candidate
	// expressions (see SetRewriter).
	rewrite func(algebra.Expr, *rig.Graph) (algebra.Expr, []optimizer.Rewrite)

	// What no file's bytes enter, kept once for every file of the schema: the
	// indexing choices resolved (choice.go), the prepared queries (prepared.go).
	choiceMu sync.Mutex
	choices  map[string]*Choice // guarded by choiceMu; by signature
	prepared *preparedCache
}

// SetRewriter overrides the optimizer applied to candidate expressions
// during Compile; nil restores the default (optimizer.OptimizeExpr). It
// exists so the differential harness's mutation tests can flip individual
// rewrites and prove the harness detects the corruption; production code
// never calls it. Set it before the catalog serves queries — it is not
// synchronized with concurrent Compile calls. Prepared queries are forgotten.
func (c *Catalog) SetRewriter(fn func(algebra.Expr, *rig.Graph) (algebra.Expr, []optimizer.Rewrite)) {
	c.rewrite = fn
	c.prepared = newPreparedCache(planCacheCap)
}

// optimizeExpr applies the configured or default candidate optimizer.
func (c *Catalog) optimizeExpr(e algebra.Expr, g *rig.Graph) (algebra.Expr, []optimizer.Rewrite) {
	if c.rewrite != nil {
		return c.rewrite(e, g)
	}
	return optimizer.OptimizeExpr(e, g)
}

// NewCatalog derives the RIG from the grammar and creates an empty class
// mapping.
func NewCatalog(g *grammar.Grammar) *Catalog {
	c := &Catalog{
		Grammar:   g,
		RIG:       g.DeriveRIG(),
		classes:   make(map[string]string),
		faithful:  make(map[string]bool),
		litTokens: make(map[string]map[string]bool),
		choices:   make(map[string]*Choice),
		prepared:  newPreparedCache(planCacheCap),
	}
	for _, nt := range g.NonTerminals() {
		c.faithful[nt] = isFaithful(g, nt)
	}
	c.computeLiteralTokens()
	return c
}

// isFaithful reports whether every production of nt is a single bare
// terminal element.
func isFaithful(g *grammar.Grammar, nt string) bool {
	prods := g.Productions(nt)
	if len(prods) == 0 {
		return false
	}
	for _, p := range prods {
		if len(p.RHS) != 1 || p.RHS[0].Kind != grammar.ElemTerm {
			return false
		}
	}
	return true
}

// computeLiteralTokens propagates, for every non-terminal, the word tokens
// occurring in production literals of the non-terminal or anything
// reachable below it.
func (c *Catalog) computeLiteralTokens() {
	own := make(map[string]map[string]bool)
	for _, nt := range c.Grammar.NonTerminals() {
		own[nt] = make(map[string]bool)
		for _, p := range c.Grammar.Productions(nt) {
			for _, e := range p.RHS {
				lit := ""
				switch e.Kind {
				case grammar.ElemLit:
					lit = e.Text
				case grammar.ElemRep:
					lit = e.Text // separator
				}
				for _, tok := range text.Tokenize(lit) {
					own[nt][lit[tok.Start:tok.End]] = true
				}
			}
		}
	}
	// Fixpoint over the RIG: tokens flow from children to parents.
	for _, nt := range c.Grammar.NonTerminals() {
		c.litTokens[nt] = make(map[string]bool)
	}
	changed := true
	for changed {
		changed = false
		for _, nt := range c.Grammar.NonTerminals() {
			add := func(tok string) {
				if !c.litTokens[nt][tok] {
					c.litTokens[nt][tok] = true
					changed = true
				}
			}
			for tok := range own[nt] {
				add(tok)
			}
			for _, child := range c.RIG.Successors(nt) {
				for tok := range c.litTokens[child] {
					add(tok)
				}
			}
		}
	}
}

// Bind maps a class name to the non-terminal backing its extent, e.g.
// "References" to "Reference".
func (c *Catalog) Bind(class, nonTerminal string) { c.classes[class] = nonTerminal }

// ClassNT resolves a class name.
func (c *Catalog) ClassNT(class string) (string, bool) {
	nt, ok := c.classes[class]
	return nt, ok
}

// VarPlan is the index-level plan for one range variable.
type VarPlan struct {
	Var string
	NT  string // non-terminal backing the variable's class

	// Candidates computes a superset of the regions whose objects can
	// satisfy the WHERE conditions on this variable. nil means the index
	// offers no narrowing (evaluate by scanning the class extent).
	Candidates algebra.Expr
	// CandidatesKey is Candidates rendered (String), once per plan: the
	// cross-query result cache keys on it for every file the plan runs on.
	CandidatesKey string
	// Original is the pre-optimization expression, for EXPLAIN and the
	// optimization benchmarks.
	Original algebra.Expr
	// Exact reports that Candidates computes exactly the satisfying
	// regions, so phase-2 filtering is unnecessary (Section 6.3).
	Exact bool
	// Rewrites lists the optimizer rules applied (Theorem 3.6).
	Rewrites []optimizer.Rewrite
	// Reads is what phase 2 builds of each candidate: the paths the WHERE
	// clause navigates from this variable, unless the plan is exact and
	// nothing is filtered, plus the projected SELECT path. Empty means a
	// candidate is never parsed at all — an exact whole-object select emits
	// spans.
	Reads *grammar.ReadSet
}

// ProjPlan describes how to produce the SELECT output.
type ProjPlan struct {
	// Steps navigates a parsed object to the projected values.
	Steps []db.Step
	// Chain, when non-nil, extracts the projected regions directly from
	// the index (a ⊂-chain per Section 5.2); Exact reports whether its
	// results are exactly the projected regions of each object.
	Chain *optimizer.Chain
	Exact bool
}

// JoinFastPlan implements Section 5.2's evaluation of a value comparison
// between two paths of the same object: "use the region index to locate the
// regions corresponding to the attributes specified by the two paths, load
// their content into the database, join, then locate the containing
// objects". L and R extract the two attributes' regions; only their bytes
// are read, and only matching objects are parsed.
type JoinFastPlan struct {
	L, R *optimizer.Chain
	// Reads replaces the variable's read set for the objects the join
	// matched: they are decided, so only the SELECT path is left to build.
	Reads *grammar.ReadSet
}

// Plan is the compiled form of a query under one indexing choice. It reads
// no file: every file that made the choice runs this one value, and nothing
// modifies it once compiled.
type Plan struct {
	Query      *xsql.Query
	Vars       []VarPlan
	Trivial    bool   // provably empty w.r.t. the RIG (Proposition 3.3)
	TrivialWhy string // human-readable reason
	Projection ProjPlan
	// Filter is the WHERE clause compiled for phase 2, which decides it
	// once per candidate (bindings in Vars order).
	Filter *xsql.Filter
	// JoinFast, when non-nil, lets the engine evaluate the (sole)
	// path-comparison condition from leaf regions without parsing the
	// candidates.
	JoinFast *JoinFastPlan
}

// Var returns the plan for the given range variable.
func (p *Plan) Var(name string) *VarPlan {
	for i := range p.Vars {
		if p.Vars[i].Var == name {
			return &p.Vars[i]
		}
	}
	return nil
}

// IndexOnly reports that the engine answers from the index alone: exact
// candidates and an exact projection chain, so no file access beyond the
// projected regions and no phase 2.
func (p *Plan) IndexOnly() bool {
	return len(p.Vars) == 1 && len(p.Query.Select.Segs) > 0 &&
		p.Vars[0].Exact && p.Vars[0].Candidates != nil &&
		p.Projection.Chain != nil && p.Projection.Exact
}

// phase2Reads names what phase 2 builds of v's candidates, for Explain.
func (p *Plan) phase2Reads(v *VarPlan) string {
	switch {
	case p.IndexOnly():
		return "nothing (index-only projection)"
	case v.Reads.Empty():
		return "nothing (spans only)"
	case v.Reads.Everything():
		// Say which path variable made it so, when one did.
		for _, path := range readPaths(p.Query, v) {
			if len(path.Segs) > 0 && path.Segs[0].Star {
				return fmt.Sprintf("everything (%s)", path.Segs[0])
			}
		}
		return "everything"
	}
	return v.Reads.Describe(v.Var)
}

// readPaths lists the query's paths phase 2 navigates from v's objects:
// the WHERE clause's when it is evaluated on them — always in a join, and
// unless the candidates are exact otherwise — and the projected SELECT
// path.
func readPaths(q *xsql.Query, v *VarPlan) []xsql.Path {
	var out []xsql.Path
	add := func(p xsql.Path) {
		if p.Var == v.Var {
			out = append(out, p)
		}
	}
	if !v.Exact || len(q.From) > 1 {
		for _, p := range xsql.CondPaths(q.Where) {
			add(p)
		}
	}
	if len(q.Select.Segs) > 0 {
		add(q.Select)
	}
	return out
}

// compileReads compiles a read set from the steps of the paths.
func (c *Catalog) compileReads(nt string, paths []xsql.Path) (*grammar.ReadSet, error) {
	steps := make([][]db.Step, len(paths))
	for i, p := range paths {
		steps[i] = p.Steps()
	}
	return c.Grammar.CompileReads(nt, steps)
}

// Explain renders a human-readable account of the plan.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", p.Query)
	if p.Trivial {
		fmt.Fprintf(&sb, "trivially empty: %s\n", p.TrivialWhy)
		return sb.String()
	}
	for i := range p.Vars {
		v := &p.Vars[i]
		fmt.Fprintf(&sb, "var %s (%s):\n", v.Var, v.NT)
		fmt.Fprintf(&sb, "  phase 2 reads: %s\n", p.phase2Reads(v))
		if v.Candidates == nil {
			fmt.Fprintf(&sb, "  candidates: full extent scan (no index support)\n")
			continue
		}
		if v.Original != nil && !algebra.Equal(v.Original, v.Candidates) {
			fmt.Fprintf(&sb, "  original:  %s  (cost %d)\n", algebra.Pretty(v.Original), algebra.Cost(v.Original))
		}
		fmt.Fprintf(&sb, "  candidates: %s  (cost %d)\n", algebra.Pretty(v.Candidates), algebra.Cost(v.Candidates))
		for _, rw := range v.Rewrites {
			fmt.Fprintf(&sb, "  rewrite: %s\n", rw)
		}
		if v.Exact {
			fmt.Fprintf(&sb, "  exact: index computes the answer; no filtering needed\n")
		} else {
			fmt.Fprintf(&sb, "  superset: candidate regions are parsed and filtered\n")
		}
	}
	if p.JoinFast != nil {
		fmt.Fprintf(&sb, "join: region-level (§5.2): %s ⋈ %s on leaf text\n",
			algebra.Pretty(p.JoinFast.L.Expr()), algebra.Pretty(p.JoinFast.R.Expr()))
	}
	if p.Projection.Chain != nil {
		fmt.Fprintf(&sb, "projection: %s (exact=%v)\n", algebra.Pretty(p.Projection.Chain.Expr()), p.Projection.Exact)
	} else if len(p.Projection.Steps) > 0 {
		fmt.Fprintf(&sb, "projection: navigate %v on parsed objects\n", p.Projection.Steps)
	}
	return sb.String()
}

// Compile plans the query against the instance's indexing choice. It is
// the full compile and consults no cache; queries run through Prepare.
func (c *Catalog) Compile(q *xsql.Query, in *index.Instance) (*Plan, error) {
	return c.compile(q, c.Choice(in))
}

// CompileStats is Compile.
//
// Deprecated: a plan reads no file's figures, so there is nothing for st to
// order. It stays only because the benchmark (bench/ladder.go) still calls
// it, until ROADMAP.md's item "thaw the benchmark" (item 1) moves it off.
func (c *Catalog) CompileStats(q *xsql.Query, in, _ *index.Instance) (*Plan, error) {
	return c.Compile(q, in)
}

// compile plans the query under an indexing choice. The plan reads nothing
// of any file: every instance that made the choice runs it.
func (c *Catalog) compile(q *xsql.Query, indexed *Choice) (*Plan, error) {
	if onCompile != nil {
		onCompile()
	}
	filter, err := xsql.CompileFilter(q)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	plan := &Plan{Query: q, Filter: filter}
	for _, f := range q.From {
		nt, ok := c.classes[f.Class]
		if !ok {
			return nil, fmt.Errorf("compile: class %q is not bound to a non-terminal", f.Class)
		}
		vp := VarPlan{Var: f.Var, NT: nt}
		expr, exact, trivial, why := c.compileCond(q.Where, f.Var, nt, indexed, len(q.From) == 1)
		if trivial {
			plan.Trivial = true
			plan.TrivialWhy = why
		}
		if expr == nil && indexed.has[nt] {
			// No narrowing from the index; all regions of the class
			// non-terminal are candidates when it is indexed.
			expr = algebra.Name{Ident: nt}
		}
		vp.Exact = exact
		vp.Candidates = expr
		vp.Original = expr
		if expr != nil {
			vp.Candidates, vp.Rewrites = c.optimizeExpr(expr, indexed.rig)
			vp.CandidatesKey = vp.Candidates.String()
		}
		plan.Vars = append(plan.Vars, vp)
	}
	c.compileProjection(plan, q, indexed)
	c.compileJoinFast(plan, q, indexed)
	for i := range plan.Vars {
		vp := &plan.Vars[i]
		if vp.Reads, err = c.compileReads(vp.NT, readPaths(q, vp)); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	if plan.JoinFast != nil {
		decided := VarPlan{Var: plan.Vars[0].Var, Exact: true}
		if plan.JoinFast.Reads, err = c.compileReads(plan.Vars[0].NT, readPaths(q, &decided)); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	return plan, nil
}

// compileJoinFast detects the Section 5.2 join pattern — a single variable
// whose only condition compares two plain paths — and prepares the
// leaf-region chains for both sides. Both must be exact, or leaf regions
// from other contexts (an editor name when the path says authors) would
// produce false matches.
func (c *Catalog) compileJoinFast(plan *Plan, q *xsql.Query, indexed *Choice) {
	if len(q.From) != 1 || plan.Trivial {
		return
	}
	cp, ok := q.Where.(xsql.CmpPaths)
	if !ok || cp.L.Var != q.From[0].Var || cp.R.Var != q.From[0].Var ||
		cp.L.HasVariables() || cp.R.HasVariables() {
		return
	}
	nt := plan.Vars[0].NT
	lch, lex := c.projChain(nt, cp.L.Attrs(), indexed)
	rch, rex := c.projChain(nt, cp.R.Attrs(), indexed)
	if lch != nil && rch != nil && lex && rex {
		plan.JoinFast = &JoinFastPlan{L: lch, R: rch}
	}
}

// compileProjection fills plan.Projection from the SELECT path.
func (c *Catalog) compileProjection(plan *Plan, q *xsql.Query, indexed *Choice) {
	plan.Projection.Steps = q.Select.Steps()
	if len(q.Select.Segs) == 0 || q.Select.HasVariables() {
		return
	}
	vp := plan.Var(q.Select.Var)
	if vp == nil {
		return
	}
	ch, exact := c.projChain(vp.NT, q.Select.Attrs(), indexed)
	if ch == nil {
		return
	}
	plan.Projection.Chain = ch
	plan.Projection.Exact = exact
}

// projChain builds the optimized ⊂-chain extracting the regions of the
// attribute path rooted at nt (Section 5.2's projection translation). The
// chain's leaf must be indexed. exact reports that the chain's results are
// exactly the attribute regions AND that their text is the attribute value
// verbatim (a bare-terminal leaf) — the condition for answering from the
// index alone.
func (c *Catalog) projChain(nt string, attrs []string, indexed *Choice) (*optimizer.Chain, bool) {
	full := append([]string{nt}, attrs...)
	if !c.RIG.IsPath(full...) {
		return nil, false
	}
	names, gaps, scoped, ok := contract(full, indexed)
	if !ok || names[len(names)-1] != full[len(full)-1] {
		return nil, false
	}
	direct := make([]bool, len(names)-1)
	exact := !scoped && c.faithful[full[len(full)-1]]
	for i := range direct {
		direct[i] = !gaps[i]
		if direct[i] && c.RIG.CountRealizingPaths(names[i], names[i+1], indexed.blockers) != rig.UniquePath {
			exact = false
		}
	}
	ch, err := optimizer.NewChain(names, direct, nil, true)
	if err != nil {
		return nil, false
	}
	opt, _ := optimizer.Optimize(ch, indexed.rig)
	return opt, exact
}

// compileCond compiles a WHERE condition into a candidate expression for
// one range variable. It returns the (unoptimized) expression or nil for
// "no narrowing", whether it is exact, and whether the condition is provably
// empty. single reports a single-variable query, where negation handling may
// rely on exactness.
func (c *Catalog) compileCond(cond xsql.Cond, v, nt string, indexed *Choice, single bool) (expr algebra.Expr, exact, trivial bool, why string) {
	switch cond := cond.(type) {
	case nil:
		return nil, true, false, ""
	case xsql.CmpConst:
		if cond.Path.Var != v {
			return nil, true, false, ""
		}
		return c.compileComparison(nt, cond.Path.Segs, cond.Word, modeEquals, indexed)
	case xsql.CmpContains:
		if cond.Path.Var != v {
			return nil, true, false, ""
		}
		return c.compileComparison(nt, cond.Path.Segs, cond.Word, modeContains, indexed)
	case xsql.CmpStarts:
		if cond.Path.Var != v {
			return nil, true, false, ""
		}
		return c.compileComparison(nt, cond.Path.Segs, cond.Prefix, modeStarts, indexed)
	case xsql.CmpPaths:
		// Value joins cannot be decided by the index (Section 5.2);
		// existence chains narrow the candidates.
		var exprs []algebra.Expr
		for _, p := range []xsql.Path{cond.L, cond.R} {
			if p.Var != v {
				continue
			}
			e, _, triv, why := c.compileComparison(nt, p.Segs, "", modeExists, indexed)
			if triv {
				return nil, false, true, why
			}
			if e != nil {
				exprs = append(exprs, e)
			}
		}
		if len(exprs) == 0 {
			return nil, false, false, ""
		}
		e := exprs[0]
		if len(exprs) == 2 {
			e = algebra.Binary{Op: algebra.OpIntersect, L: e, R: exprs[1]}
		}
		return e, false, false, ""
	case xsql.And:
		le, lex, ltriv, lwhy := c.compileCond(cond.L, v, nt, indexed, single)
		re, rex, rtriv, rwhy := c.compileCond(cond.R, v, nt, indexed, single)
		if ltriv {
			return nil, false, true, lwhy
		}
		if rtriv {
			return nil, false, true, rwhy
		}
		switch {
		case le == nil:
			return re, lex && rex, false, ""
		case re == nil:
			return le, lex && rex, false, ""
		default:
			return algebra.Binary{Op: algebra.OpIntersect, L: le, R: re}, lex && rex, false, ""
		}
	case xsql.Or:
		le, lex, ltriv, _ := c.compileCond(cond.L, v, nt, indexed, single)
		re, rex, rtriv, _ := c.compileCond(cond.R, v, nt, indexed, single)
		switch {
		case ltriv && rtriv:
			return nil, false, true, "both OR branches are trivially empty"
		case ltriv:
			return re, rex, false, ""
		case rtriv:
			return le, lex, false, ""
		case le == nil || re == nil:
			// One branch is unconstrained: the union is everything.
			return nil, lex && rex && le != nil && re != nil, false, ""
		default:
			return algebra.Binary{Op: algebra.OpUnion, L: le, R: re}, lex && rex, false, ""
		}
	case xsql.Not:
		se, sex, striv, _ := c.compileCond(cond.C, v, nt, indexed, single)
		if striv {
			// NOT of an empty condition constrains nothing.
			return nil, true, false, ""
		}
		if se == nil || !sex || !single || !indexed.has[nt] {
			// Complementing a superset would lose answers; fall back
			// to filtering.
			return nil, false, false, ""
		}
		return algebra.Binary{Op: algebra.OpDiff, L: algebra.Name{Ident: nt}, R: se}, true, false, ""
	default:
		return nil, false, false, ""
	}
}

// pathItem is one element of a resolved path: a concrete non-terminal name
// or a star gap.
type pathItem struct {
	name string
	star bool
}

// ResolvePaths expands a query path rooted at the given non-terminal into
// the concrete full RIG paths it matches, with "*" marking star gaps. It is
// used by the index advisor, which reasons about paths without an instance.
// complete=false reports that ?-variable enumeration was capped.
func (c *Catalog) ResolvePaths(nt string, segs []xsql.Seg) (paths [][]string, complete bool) {
	resolved, complete := c.resolve(nt, segs)
	for _, items := range resolved {
		full := []string{nt}
		for _, it := range items {
			if it.star {
				full = append(full, "*")
			} else {
				full = append(full, it.name)
			}
		}
		paths = append(paths, full)
	}
	return paths, complete
}

// cmpMode distinguishes the selection flavours a comparison compiles to.
type cmpMode int

const (
	modeExists   cmpMode = iota // bare path existence (join narrowing)
	modeEquals                  // path = "constant"
	modeContains                // path CONTAINS "word"
	modeStarts                  // path STARTS "prefix"
)

// compileComparison compiles nt.segs ⟨mode⟩ constant into a candidate
// expression rooted at nt.
func (c *Catalog) compileComparison(nt string, segs []xsql.Seg, constant string, mode cmpMode, indexed *Choice) (expr algebra.Expr, exact, trivial bool, why string) {
	if err := checkVariableNames(segs); err != nil {
		return nil, false, false, ""
	}
	if len(segs) == 0 && mode != modeExists {
		// A comparison on the whole object: approximate by word
		// containment on the object region.
		if !indexed.usableAt(nt, nil) {
			return nil, false, false, ""
		}
		var e algebra.Expr = algebra.Name{Ident: nt}
		for _, w := range completeWords(constant, mode == modeStarts) {
			e = algebra.Select{Mode: algebra.SelContains, W: w, Arg: e}
		}
		exact := mode == modeContains && c.containsIsExact(nt, constant)
		return e, exact, false, ""
	}
	resolved, complete := c.resolve(nt, segs)
	if len(resolved) == 0 {
		return nil, false, true,
			fmt.Sprintf("path %s.%s matches no RIG path (Proposition 3.3)", nt, segsString(segs))
	}
	var exprs []algebra.Expr
	allExact := complete
	for _, items := range resolved {
		e, ex, ok := c.buildChain(nt, items, constant, mode, indexed)
		if !ok {
			return nil, false, false, "" // index offers no help
		}
		exprs = append(exprs, e)
		allExact = allExact && ex
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = algebra.Binary{Op: algebra.OpUnion, L: out, R: e}
	}
	return out, allExact, false, ""
}

// containsIsExact reports whether σ-containment of the constant on regions
// of nt coincides with database word containment: the constant must be one
// clean word that cannot come from production literals.
func (c *Catalog) containsIsExact(nt, constant string) bool {
	toks := text.Tokenize(constant)
	if len(toks) != 1 || constant[toks[0].Start:toks[0].End] != constant {
		return false
	}
	return !c.litTokens[nt][constant]
}

// checkVariableNames rejects repeated path-variable names, which would
// require unification across occurrences.
func checkVariableNames(segs []xsql.Seg) error {
	seen := make(map[string]bool)
	for _, s := range segs {
		if (s.Star || s.Any) && s.Var != "" {
			if seen[s.Var] {
				return fmt.Errorf("compile: path variable %q occurs twice", s.Var)
			}
			seen[s.Var] = true
		}
	}
	return nil
}

func segsString(segs []xsql.Seg) string {
	parts := make([]string, len(segs))
	for i, s := range segs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ".")
}

// resolve expands the path's segments against the full RIG: attribute
// segments must follow RIG edges, ?X segments are enumerated (each
// assignment produces one resolved path), and *X segments remain symbolic
// star gaps. complete=false reports that enumeration was capped and the
// result is a superset translation.
func (c *Catalog) resolve(nt string, segs []xsql.Seg) (paths [][]pathItem, complete bool) {
	complete = true
	paths = [][]pathItem{nil}
	cur := []string{nt} // last concrete name per partial path ("" after a star)
	for _, seg := range segs {
		var nextPaths [][]pathItem
		var nextCur []string
		switch {
		case seg.Star:
			for i, p := range paths {
				nextPaths = append(nextPaths, append(clonePath(p), pathItem{star: true}))
				nextCur = append(nextCur, starMark(cur[i]))
			}
		case seg.Any:
			for i, p := range paths {
				var succ []string
				if isStar(cur[i]) {
					// A ? after a star folds into the star; the
					// star cannot express the extra mandatory
					// step, so the translation widens.
					complete = false
					nextPaths = append(nextPaths, clonePath(p))
					nextCur = append(nextCur, cur[i])
					continue
				}
				succ = c.RIG.Successors(cur[i])
				if len(succ) > enumCap || tooMany(len(nextPaths), len(succ)) {
					complete = false
					nextPaths = append(nextPaths, append(clonePath(p), pathItem{star: true}))
					nextCur = append(nextCur, starMark(cur[i]))
					continue
				}
				for _, s := range succ {
					nextPaths = append(nextPaths, append(clonePath(p), pathItem{name: s}))
					nextCur = append(nextCur, s)
				}
			}
		default:
			for i, p := range paths {
				if !isStar(cur[i]) && !c.RIG.HasEdge(cur[i], seg.Attr) {
					continue // dead branch
				}
				if isStar(cur[i]) && !c.RIG.HasNode(seg.Attr) {
					continue
				}
				nextPaths = append(nextPaths, append(clonePath(p), pathItem{name: seg.Attr}))
				nextCur = append(nextCur, seg.Attr)
			}
		}
		paths, cur = nextPaths, nextCur
		if len(paths) == 0 {
			return nil, complete
		}
	}
	return paths, complete
}

func clonePath(p []pathItem) []pathItem { return append([]pathItem(nil), p...) }

func isStar(mark string) bool { return strings.HasPrefix(mark, "*") }

func starMark(prev string) string {
	if isStar(prev) {
		return prev
	}
	return "*" + prev
}

func tooMany(existing, factor int) bool { return existing*factor > enumCap }

// contract keeps the usable indexed names of a concrete full path,
// recording for each kept pair whether the gap between them crossed a star
// (gap=true → plain ⊃). Selectively indexed names are kept only when their
// scope occurs earlier on the path; scoped reports whether any kept name is
// scope-restricted (which disables the exactness classification). ok=false
// means the root itself is unusable.
func contract(full []string, indexed *Choice) (names []string, gaps []bool, scoped, ok bool) {
	if !indexed.usableAt(full[0], nil) {
		return nil, nil, false, false
	}
	names = []string{full[0]}
	gap := false
	for i, n := range full[1:] {
		if n == "*" {
			gap = true
			continue
		}
		if indexed.usableAt(n, full[:i+1]) {
			if indexed.scope[n] != "" {
				scoped = true
			}
			names = append(names, n)
			gaps = append(gaps, gap)
			gap = false
		}
	}
	return names, gaps, scoped, true
}

// buildChain turns one resolved path into an inclusion chain over the
// indexed names, classifying exactness per Section 6.3.
func (c *Catalog) buildChain(nt string, items []pathItem, constant string, mode cmpMode, indexed *Choice) (algebra.Expr, bool, bool) {
	full := []string{nt}
	for _, it := range items {
		if it.star {
			full = append(full, "*")
		} else {
			full = append(full, it.name)
		}
	}
	names, gaps, scoped, ok := contract(full, indexed)
	if !ok {
		return nil, false, false
	}
	trailingStar := len(full) > 1 && full[len(full)-1] == "*"
	leafKept := !trailingStar && names[len(names)-1] == full[len(full)-1]

	// Scoped anchors narrow candidates soundly but their coverage is not
	// modelled by the RIG analyses, so exactness is forfeited.
	exact := !scoped
	direct := make([]bool, len(names)-1)
	for i := range direct {
		direct[i] = !gaps[i]
		if direct[i] {
			if c.RIG.CountRealizingPaths(names[i], names[i+1], indexed.blockers) != rig.UniquePath {
				exact = false
			}
		}
	}
	if !leafKept {
		exact = false
	}

	// Selection on the deepest kept name. Its exactness depends on the
	// mode and on whether the region text is faithful to the value (see
	// Catalog): equality needs a bare-terminal leaf; word containment
	// needs a clean single word that no production literal can produce.
	leaf := names[len(names)-1]
	var sel *optimizer.Selection
	selWords := []string(nil)
	switch {
	case mode == modeExists:
		// Bare existence test: no selection.
	case mode == modeEquals && leafKept && c.faithful[leaf]:
		sel = &optimizer.Selection{Mode: algebra.SelEquals, Word: constant}
	case mode == modeContains && leafKept && c.containsIsExact(leaf, constant):
		sel = &optimizer.Selection{Mode: algebra.SelContains, Word: constant}
	case mode == modeStarts && leafKept && c.faithful[leaf]:
		sel = &optimizer.Selection{Mode: algebra.SelPrefix, Word: constant}
	default:
		// Approximate with containment of the constant's complete
		// words on the deepest kept region and filter. For a prefix
		// the final word may be cut short, so it is dropped.
		selWords = completeWords(constant, mode == modeStarts)
		exact = false
	}

	ch, err := optimizer.NewChain(names, direct, sel, false)
	if err != nil {
		return nil, false, false
	}
	expr := ch.Expr()
	for _, w := range selWords {
		expr = wrapDeepestSelect(expr, w)
	}
	return expr, exact, true
}

// completeWords tokenizes a constant into the words safe to require by
// containment; when the constant is a prefix, its final word may be
// truncated and is dropped.
func completeWords(constant string, prefix bool) []string {
	toks := text.Tokenize(constant)
	var out []string
	for i, tok := range toks {
		if prefix && i == len(toks)-1 && tok.End == len(constant) {
			break // possibly cut short
		}
		out = append(out, constant[tok.Start:tok.End])
	}
	return out
}

// wrapDeepestSelect pushes a containment selection onto the deepest name of
// a selection chain.
func wrapDeepestSelect(e algebra.Expr, w string) algebra.Expr {
	switch e := e.(type) {
	case algebra.Binary:
		return algebra.Binary{Op: e.Op, L: e.L, R: wrapDeepestSelect(e.R, w)}
	default:
		return algebra.Select{Mode: algebra.SelContains, W: w, Arg: e}
	}
}
