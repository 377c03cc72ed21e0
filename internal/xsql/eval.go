package xsql

import (
	"fmt"
	"strings"

	"qof/internal/db"
	"qof/internal/text"
)

// Steps converts the path's segments into database navigation steps.
func (p Path) Steps() []db.Step {
	steps := make([]db.Step, len(p.Segs))
	for i, s := range p.Segs {
		switch {
		case s.Star:
			steps[i] = db.Step{Star: true}
		case s.Any:
			steps[i] = db.Step{Any: true}
		default:
			steps[i] = db.Step{Attr: s.Attr}
		}
	}
	return steps
}

// Filter is a query's WHERE clause compiled for repeated evaluation. Phase 2
// decides it once per candidate object, so everything that depends only on
// the query is resolved here once: each path's navigation steps, and each
// range variable's position in the FROM list, which is how Eval receives
// the bindings. The semantics are the usual existential ones: a comparison
// holds when some value reached by the path(s) satisfies it.
type Filter struct {
	root *filterNode // nil: no WHERE clause, always true
}

type filterOp int

const (
	opConst filterOp = iota
	opContains
	opStarts
	opPaths
	opAnd
	opOr
	opNot
)

type filterNode struct {
	op     filterOp
	l, r   *filterNode // opAnd, opOr; opNot uses l
	slot   int         // comparisons: FROM position of the (left) path's variable
	steps  []db.Step
	rslot  int // opPaths: the right path
	rsteps []db.Step
	word   string // constant, word or prefix
}

// CompileFilter compiles q's WHERE clause. It fails on a path whose range
// variable the FROM list does not bind (Parse rejects those; a hand-built
// query may not have been checked).
func CompileFilter(q *Query) (*Filter, error) {
	root, err := compileCond(q, q.Where)
	if err != nil {
		return nil, err
	}
	return &Filter{root: root}, nil
}

func compileCond(q *Query, c Cond) (*filterNode, error) {
	switch c := c.(type) {
	case nil:
		return nil, nil
	case CmpConst:
		return compileCmp(q, opConst, c.Path, c.Word)
	case CmpContains:
		return compileCmp(q, opContains, c.Path, c.Word)
	case CmpStarts:
		return compileCmp(q, opStarts, c.Path, c.Prefix)
	case CmpPaths:
		n, err := compileCmp(q, opPaths, c.L, "")
		if err != nil {
			return nil, err
		}
		if n.rslot, err = fromSlot(q, c.R); err != nil {
			return nil, err
		}
		n.rsteps = c.R.Steps()
		return n, nil
	case And:
		return compilePair(q, opAnd, c.L, c.R)
	case Or:
		return compilePair(q, opOr, c.L, c.R)
	case Not:
		n, err := compileCond(q, c.C)
		if err != nil {
			return nil, err
		}
		return &filterNode{op: opNot, l: n}, nil
	default:
		return nil, fmt.Errorf("xsql: unknown condition %T", c)
	}
}

// fromSlot resolves a path's range variable to its position in the FROM
// list.
func fromSlot(q *Query, p Path) (int, error) {
	for i, f := range q.From {
		if f.Var == p.Var {
			return i, nil
		}
	}
	return 0, fmt.Errorf("xsql: unbound variable %q", p.Var)
}

func compileCmp(q *Query, op filterOp, p Path, word string) (*filterNode, error) {
	slot, err := fromSlot(q, p)
	if err != nil {
		return nil, err
	}
	return &filterNode{op: op, slot: slot, steps: p.Steps(), word: word}, nil
}

func compilePair(q *Query, op filterOp, l, r Cond) (*filterNode, error) {
	ln, err := compileCond(q, l)
	if err != nil {
		return nil, err
	}
	rn, err := compileCond(q, r)
	if err != nil {
		return nil, err
	}
	return &filterNode{op: op, l: ln, r: rn}, nil
}

// Eval decides the clause for one assignment of the range variables:
// vals[i] is the value bound to the i-th FROM entry.
func (f *Filter) Eval(vals []db.Value) bool { return f.root.eval(vals) }

// EvalOne is Eval for a single-variable query.
func (f *Filter) EvalOne(v db.Value) bool {
	vals := [1]db.Value{v}
	return f.root.eval(vals[:])
}

func (n *filterNode) eval(vals []db.Value) bool {
	if n == nil {
		return true
	}
	switch n.op {
	case opConst:
		return db.HasLeaf(vals[n.slot], n.steps, n.word)
	case opContains:
		return db.AnyString(vals[n.slot], n.steps, func(s string) bool {
			return text.ContainsWholeWord(s, n.word)
		})
	case opStarts:
		return db.AnyString(vals[n.slot], n.steps, func(s string) bool {
			return strings.HasPrefix(s, n.word)
		})
	case opPaths:
		seen := make(map[string]bool)
		db.AnyString(vals[n.slot], n.steps, func(s string) bool {
			seen[s] = true
			return false
		})
		if len(seen) == 0 {
			return false
		}
		return db.AnyString(vals[n.rslot], n.rsteps, func(s string) bool { return seen[s] })
	case opAnd:
		return n.l.eval(vals) && n.r.eval(vals)
	case opOr:
		return n.l.eval(vals) || n.r.eval(vals)
	default: // opNot
		return !n.l.eval(vals)
	}
}
