package algebra

import "math"

// Static cost model for region expressions. The paper's Definition 3.4
// orders expressions by efficiency using two observations: an expression
// with fewer inclusion operations is cheaper, and ⊃ is cheaper than the
// "significantly more expensive" ⊃d (whose evaluation iterates over nested
// layers and consults every other region index). The weights below encode
// that ordering; they drive EXPLAIN output and the ablation benchmarks, not
// correctness.
const (
	CostSetOp     = 1  // ∪, ∩, −
	CostSelect    = 2  // σ (word/region index lookups)
	CostNest      = 2  // ι, ω (single sweep)
	CostInclusion = 3  // ⊃, ⊂ (sorted sweep with range queries)
	CostDirect    = 12 // ⊃d, ⊂d (layered evaluation over all indices)
)

// Cost returns the static cost of e under the model above. For any RIG, the
// paper's "more efficient" relation (Definition 3.4) strictly decreases
// Cost: replacing ⊃d by ⊃ saves CostDirect−CostInclusion, and shortening a
// chain removes at least one inclusion operator.
func Cost(e Expr) int { return costUpTo(e, math.MaxInt) }

// CostAtLeast reports whether Cost(e) >= min without always walking the
// whole expression: the recursion stops the moment the running total
// reaches min. The result-cache worthiness check runs on every operator
// node of every evaluation, so it must not pay a full subtree walk just to
// learn that the very first inclusion already clears the threshold.
func CostAtLeast(e Expr, min int) bool {
	return costUpTo(e, min) >= min
}

// costUpTo accumulates cost depth-first but returns as soon as the total
// reaches limit. It holds the model's one table of weights.
func costUpTo(e Expr, limit int) int {
	total := 0
	switch e := e.(type) {
	case Binary:
		if e.Op.IsDirect() {
			total = CostDirect
		} else if e.Op.IsInclusion() {
			total = CostInclusion
		} else {
			total = CostSetOp
		}
		if total < limit {
			total += costUpTo(e.L, limit-total)
		}
		if total < limit {
			total += costUpTo(e.R, limit-total)
		}
	case Unary:
		total = CostNest
		if total < limit {
			total += costUpTo(e.Arg, limit-total)
		}
	case Select:
		total = CostSelect
		if total < limit {
			total += costUpTo(e.Arg, limit-total)
		}
	case Near:
		total = CostInclusion
		if total < limit {
			total += costUpTo(e.E, limit-total)
		}
		if total < limit {
			total += costUpTo(e.To, limit-total)
		}
	case Freq:
		total = CostSelect
		if total < limit {
			total += costUpTo(e.Arg, limit-total)
		}
	}
	return total
}
