package optimizer

import (
	"qof/internal/algebra"
	"qof/internal/index"
)

// OrderOperands canonically orders the operands of the commutative set
// operators (∩, ∪) with the side estimated cheaper on the instance in
// first, recursively. This is the one place an operand order is decided:
// the evaluator runs the left operand first, so for ∩ an empty cheap side
// skips the expensive one; for ∪ the order only normalizes plans. The transformation permutes operands of
// commutative operators and nothing else, so it picks among semantically
// equal, Theorem 3.6-equivalent forms — the optimizer's correctness
// guarantees (validated by the rewrite property tests) are untouched.
func OrderOperands(e algebra.Expr, in *index.Instance) algebra.Expr {
	if in == nil {
		return e
	}
	switch e := e.(type) {
	case algebra.Binary:
		l := OrderOperands(e.L, in)
		r := OrderOperands(e.R, in)
		if e.Op == algebra.OpUnion || e.Op == algebra.OpIntersect {
			if cheaper(algebra.EstimateCost(r, in), algebra.EstimateCost(l, in)) {
				l, r = r, l
			}
		}
		return algebra.Binary{Op: e.Op, L: l, R: r}
	case algebra.Unary:
		return algebra.Unary{Op: e.Op, Arg: OrderOperands(e.Arg, in)}
	case algebra.Select:
		return algebra.Select{Mode: e.Mode, W: e.W, Arg: OrderOperands(e.Arg, in)}
	case algebra.Near:
		return algebra.Near{E: OrderOperands(e.E, in), To: OrderOperands(e.To, in), K: e.K}
	case algebra.Freq:
		return algebra.Freq{Arg: OrderOperands(e.Arg, in), W: e.W, N: e.N}
	default:
		return e
	}
}

// cheaper orders estimates by evaluation cost, breaking ties by output
// cardinality: when two operands are equally cheap to produce (two bare
// names, say), the smaller set first makes the ∩ sweep scan less and is
// likelier to be empty, which lets the evaluator skip the other side.
func cheaper(a, b algebra.Estimate) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Card < b.Card
}

// Orderable reports whether OrderOperands has anything to order in e: a ∩ or
// ∪ somewhere. Without one it returns e operand for operand.
func Orderable(e algebra.Expr) bool {
	switch e := e.(type) {
	case algebra.Binary:
		return e.Op == algebra.OpUnion || e.Op == algebra.OpIntersect || Orderable(e.L) || Orderable(e.R)
	case algebra.Unary:
		return Orderable(e.Arg)
	case algebra.Select:
		return Orderable(e.Arg)
	case algebra.Near:
		return Orderable(e.E) || Orderable(e.To)
	case algebra.Freq:
		return Orderable(e.Arg)
	default:
		return false
	}
}
