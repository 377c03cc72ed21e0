// Package qgen generates random well-typed XSQL queries and region-algebra
// expressions over a domain's RIG, plus the small random corpora they run
// against. Everything is seeded: the same seed reproduces the same corpus,
// the same queries and the same expressions, so a differential-test failure
// is replayable from its seed alone.
//
// "Well-typed" means queries always range over bound classes, the select
// variable is always bound by FROM, and path-variable names are unique
// within a path — the properties the compiler requires. Attribute paths are
// random walks on the RIG, so most follow real structure; walks resuming
// after a */? segment may leave it, which deliberately exercises dead-branch
// and full-scan handling.
package qgen

import (
	"fmt"
	"math/rand"

	"qof/internal/algebra"
	"qof/internal/xsql"
)

// QueryGen generates random XSQL queries over a domain.
type QueryGen struct {
	d      *Domain
	rng    *rand.Rand
	varSeq int
}

// NewQueryGen creates a seeded query generator.
func NewQueryGen(d *Domain, seed int64) *QueryGen {
	return &QueryGen{d: d, rng: rand.New(rand.NewSource(seed))}
}

// Query generates one random query.
func (g *QueryGen) Query() *xsql.Query {
	g.varSeq = 0
	q := &xsql.Query{}
	vars := []string{"r"}
	if g.rng.Float64() < 0.10 {
		vars = append(vars, "s")
	}
	for _, v := range vars {
		q.From = append(q.From, xsql.FromClause{
			Class: g.d.Classes[g.rng.Intn(len(g.d.Classes))],
			Var:   v,
		})
	}
	selVar := vars[g.rng.Intn(len(vars))]
	q.Select = xsql.Path{Var: selVar}
	if g.rng.Float64() < 0.30 {
		q.Select.Segs = g.path(g.classNT(q, selVar), 1+g.rng.Intn(3))
	}
	if g.rng.Float64() >= 0.10 {
		q.Where = g.cond(q, vars, 2)
	}
	return q
}

func (g *QueryGen) classNT(q *xsql.Query, v string) string {
	class, _ := q.ClassOf(v)
	nt, _ := g.d.Cat.ClassNT(class)
	return nt
}

// cond generates a boolean criterion of the given maximum combinator depth.
func (g *QueryGen) cond(q *xsql.Query, vars []string, depth int) xsql.Cond {
	if depth == 0 || g.rng.Float64() < 0.55 {
		return g.leaf(q, vars)
	}
	switch g.rng.Intn(3) {
	case 0:
		return xsql.And{L: g.cond(q, vars, depth-1), R: g.cond(q, vars, depth-1)}
	case 1:
		return xsql.Or{L: g.cond(q, vars, depth-1), R: g.cond(q, vars, depth-1)}
	default:
		return xsql.Not{C: g.cond(q, vars, depth-1)}
	}
}

// leaf generates one comparison.
func (g *QueryGen) leaf(q *xsql.Query, vars []string) xsql.Cond {
	v := vars[g.rng.Intn(len(vars))]
	p := xsql.Path{Var: v, Segs: g.path(g.classNT(q, v), g.rng.Intn(5))}
	switch r := g.rng.Float64(); {
	case r < 0.40:
		return xsql.CmpConst{Path: p, Word: g.word()}
	case r < 0.65:
		return xsql.CmpContains{Path: p, Word: g.word()}
	case r < 0.85:
		return xsql.CmpStarts{Path: p, Prefix: g.d.Prefixes[g.rng.Intn(len(g.d.Prefixes))]}
	default:
		w := vars[g.rng.Intn(len(vars))]
		return xsql.CmpPaths{
			L: p,
			R: xsql.Path{Var: w, Segs: g.path(g.classNT(q, w), g.rng.Intn(4))},
		}
	}
}

func (g *QueryGen) word() string { return g.d.Words[g.rng.Intn(len(g.d.Words))] }

// path random-walks the RIG from nt for up to steps segments. Each step is
// usually the next edge of the walk; occasionally a *X or ?X variable
// segment. After a variable segment the walk resumes from a random RIG node,
// so paths may or may not realign with real structure.
func (g *QueryGen) path(nt string, steps int) []xsql.Seg {
	var segs []xsql.Seg
	cur := nt
	nodes := g.d.Cat.RIG.Nodes()
	for i := 0; i < steps; i++ {
		r := g.rng.Float64()
		switch {
		case r < 0.08:
			g.varSeq++
			segs = append(segs, xsql.Seg{Star: true, Var: fmt.Sprintf("X%d", g.varSeq)})
			cur = nodes[g.rng.Intn(len(nodes))]
		case r < 0.14:
			g.varSeq++
			segs = append(segs, xsql.Seg{Any: true, Var: fmt.Sprintf("X%d", g.varSeq)})
			cur = nodes[g.rng.Intn(len(nodes))]
		default:
			succ := g.d.Cat.RIG.Successors(cur)
			if len(succ) == 0 {
				return segs
			}
			next := succ[g.rng.Intn(len(succ))]
			segs = append(segs, xsql.Seg{Attr: next})
			cur = next
		}
	}
	return segs
}

// ExprGen generates random region-algebra expressions over a set of region
// names (typically the indexed names of one instance).
type ExprGen struct {
	names     []string
	words     []string
	prefixes  []string
	fragments []string
	rng       *rand.Rand
}

// NewExprGen creates a seeded expression generator drawing Name leaves from
// names and string leaves from the given pools.
func NewExprGen(names, words, prefixes, fragments []string, seed int64) *ExprGen {
	return &ExprGen{
		names:     names,
		words:     words,
		prefixes:  prefixes,
		fragments: fragments,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// ExprGenFor creates an expression generator for a domain, drawing Name
// leaves from the given instance names.
func ExprGenFor(d *Domain, names []string, seed int64) *ExprGen {
	return NewExprGen(names, d.Words, d.Prefixes, d.Fragments, seed)
}

// Expr generates one random expression.
func (g *ExprGen) Expr() algebra.Expr { return g.expr(3) }

func (g *ExprGen) expr(depth int) algebra.Expr {
	if depth == 0 || g.rng.Float64() < 0.35 {
		return g.exprLeaf()
	}
	switch g.rng.Intn(11) {
	case 0:
		return algebra.Binary{Op: algebra.OpUnion, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 1:
		return algebra.Binary{Op: algebra.OpIntersect, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 2:
		return algebra.Binary{Op: algebra.OpDiff, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 3:
		return algebra.Binary{Op: algebra.OpIncluding, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 4:
		return algebra.Binary{Op: algebra.OpIncluded, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 5:
		if w, m, ok := g.cut(); ok {
			return algebra.Binary{Op: algebra.OpDirIncluding, L: w, R: m}
		}
		return algebra.Binary{Op: algebra.OpDirIncluding, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 6:
		if w, m, ok := g.cut(); ok {
			return algebra.Binary{Op: algebra.OpDirIncluded, L: m, R: w}
		}
		return algebra.Binary{Op: algebra.OpDirIncluded, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 7:
		op := algebra.OpInnermost
		if g.rng.Intn(2) == 1 {
			op = algebra.OpOutermost
		}
		return algebra.Unary{Op: op, Arg: g.expr(depth - 1)}
	case 8:
		mode := []algebra.SelMode{algebra.SelContains, algebra.SelEquals, algebra.SelPrefix}[g.rng.Intn(3)]
		return algebra.Select{Mode: mode, W: g.words[g.rng.Intn(len(g.words))], Arg: g.expr(depth - 1)}
	case 9:
		return algebra.Near{E: g.expr(depth - 1), To: g.expr(depth - 1), K: g.rng.Intn(21)}
	default:
		return algebra.Freq{Arg: g.expr(depth - 1), W: g.words[g.rng.Intn(len(g.words))], N: g.rng.Intn(4)}
	}
}

// cut returns, one time in three, a word and a match fragment cut from
// inside it, w[1:k]: the pair whose ⊃d and ⊂d have a container outside
// every named set, a word point strictly around a match point. Half the
// time the word comes with a name's regions, which may hold it: a word
// point between a named region and the fragment, which must not block.
func (g *ExprGen) cut() (algebra.Expr, algebra.Expr, bool) {
	w := g.words[g.rng.Intn(len(g.words))]
	if len(w) < 3 || g.rng.Intn(3) > 0 {
		return nil, nil, false
	}
	var outer algebra.Expr = algebra.Word{W: w}
	if len(g.names) > 0 && g.rng.Intn(2) == 0 {
		outer = algebra.Binary{Op: algebra.OpUnion, L: algebra.Name{Ident: g.names[g.rng.Intn(len(g.names))]}, R: outer}
	}
	return outer, algebra.Match{S: w[1 : 2+g.rng.Intn(len(w)-2)]}, true
}

func (g *ExprGen) exprLeaf() algebra.Expr {
	switch r := g.rng.Float64(); {
	case r < 0.55:
		// Mostly indexed names; a rare unknown name checks error parity.
		if g.rng.Float64() < 0.03 || len(g.names) == 0 {
			return algebra.Name{Ident: "Qgen_Not_Indexed"}
		}
		return algebra.Name{Ident: g.names[g.rng.Intn(len(g.names))]}
	case r < 0.75:
		return algebra.Word{W: g.words[g.rng.Intn(len(g.words))]}
	case r < 0.88:
		if g.rng.Intn(2) == 0 {
			// A prefix of a word: its points are that word's, which is
			// the only word of some names' regions (a last name, a key).
			w := g.words[g.rng.Intn(len(g.words))]
			return algebra.Prefix{P: w[:1+g.rng.Intn(len(w))]}
		}
		return algebra.Prefix{P: g.prefixes[g.rng.Intn(len(g.prefixes))]}
	default:
		return algebra.Match{S: g.fragments[g.rng.Intn(len(g.fragments))]}
	}
}
