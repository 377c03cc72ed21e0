package optimizer

import (
	"qof/internal/algebra"
	"qof/internal/stats"
)

// OrderOperands canonically orders the operands of the commutative set
// operators (∩, ∪) with the estimated-cheaper side first, recursively. For
// ∩ the evaluator then evaluates the cheap side first and can prove the
// intersection empty without touching the expensive side; for ∪ the order
// only normalizes plans. The transformation permutes operands of
// commutative operators and nothing else, so it picks among semantically
// equal, Theorem 3.6-equivalent forms — the optimizer's correctness
// guarantees (validated by the rewrite property tests) are untouched.
func OrderOperands(e algebra.Expr, st *stats.Stats) algebra.Expr {
	if st == nil {
		return e
	}
	switch e := e.(type) {
	case algebra.Binary:
		l := OrderOperands(e.L, st)
		r := OrderOperands(e.R, st)
		if e.Op == algebra.OpUnion || e.Op == algebra.OpIntersect {
			if cheaper(algebra.EstimateCost(r, st), algebra.EstimateCost(l, st)) {
				l, r = r, l
			}
		}
		return algebra.Binary{Op: e.Op, L: l, R: r}
	case algebra.Unary:
		return algebra.Unary{Op: e.Op, Arg: OrderOperands(e.Arg, st)}
	case algebra.Select:
		return algebra.Select{Mode: e.Mode, W: e.W, Arg: OrderOperands(e.Arg, st)}
	case algebra.Near:
		return algebra.Near{E: OrderOperands(e.E, st), To: OrderOperands(e.To, st), K: e.K}
	case algebra.Freq:
		return algebra.Freq{Arg: OrderOperands(e.Arg, st), W: e.W, N: e.N}
	default:
		return e
	}
}

// cheaper orders estimates by evaluation cost, breaking ties by output
// cardinality: when two operands are equally cheap to produce (two bare
// names, say), the smaller set first makes the ∩ sweep scan less and is
// likelier to trigger the evaluator's empty-operand short-circuit.
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
