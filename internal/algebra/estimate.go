package algebra

import (
	"qof/internal/stats"
)

// Cardinality-aware costing. The paper's Definition 3.4 compares rewrites
// by operator counts alone; with index-time statistics available the
// evaluator can do better: estimate how many regions each operator yields
// and order (or skip) operand evaluation accordingly. Estimates are upper
// bounds, so Card == 0 means provably empty — e.g. a σ_w selection whose
// word never occurs in the document — which the evaluator exploits to
// short-circuit ∩, ⊃ and ⊂ without touching the other operand.

// Estimate bounds the result of evaluating an expression against the
// instance the statistics describe.
type Estimate struct {
	// Card is an upper bound on the number of regions in the result;
	// 0 means the result is provably empty.
	Card int
	// Cost estimates the work of evaluating the expression, in the same
	// abstract units as the static Cost weights scaled by cardinality.
	Cost float64
}

// EstimateCost estimates the output cardinality and evaluation cost of e
// using per-instance statistics: σ_w selectivity from word frequency,
// inclusion output bounded by |R|, and set-operation bounds. st must be
// non-nil. Correctness never depends on the estimates — they order and
// prune work, and Card is a sound upper bound whenever every Name in e is
// indexed on the instance the statistics were collected from.
func EstimateCost(e Expr, st *stats.Stats) Estimate {
	switch e := e.(type) {
	case Name:
		return Estimate{Card: st.RegionCard(e.Ident), Cost: 1}
	case Word:
		return Estimate{Card: st.WordFreq(e.W), Cost: 1}
	case Prefix:
		// Binary search over the dictionary plus a sort of the hits;
		// the number of matches is unknown, so only the token total
		// bounds it.
		return Estimate{Card: st.TotalTokens(), Cost: 1 + lg(st.TotalTokens())}
	case Match:
		// Suffix-array lookup; occurrences have distinct starts.
		return Estimate{Card: st.DocLen(), Cost: 1 + lg(st.DocLen())}
	case Select:
		arg := EstimateCost(e.Arg, st)
		card := arg.Card
		if e.Mode == SelContains && st.WordFreq(e.W) == 0 {
			card = 0 // the word never occurs, so no region contains it
		}
		return Estimate{Card: card, Cost: arg.Cost + float64(arg.Card)*CostSelect}
	case Unary:
		arg := EstimateCost(e.Arg, st)
		return Estimate{Card: arg.Card, Cost: arg.Cost + float64(arg.Card)*CostNest}
	case Near:
		l := EstimateCost(e.E, st)
		r := EstimateCost(e.To, st)
		card := l.Card
		if r.Card == 0 {
			card = 0
		}
		return Estimate{Card: card, Cost: l.Cost + r.Cost + float64(l.Card+r.Card)*CostSelect}
	case Freq:
		arg := EstimateCost(e.Arg, st)
		card := arg.Card
		if e.N > 0 && st.WordFreq(e.W) < e.N {
			card = 0 // fewer total occurrences than the threshold
		}
		return Estimate{Card: card, Cost: arg.Cost + float64(arg.Card)*CostSelect}
	case Binary:
		l := EstimateCost(e.L, st)
		r := EstimateCost(e.R, st)
		var card int
		weight := float64(CostSetOp)
		switch e.Op {
		case OpUnion:
			card = l.Card + r.Card
		case OpIntersect:
			card = min(l.Card, r.Card)
		case OpDiff:
			card = l.Card
		default:
			// Inclusion output is a subset of the left operand and empty
			// when either side is.
			card = l.Card
			if r.Card == 0 {
				card = 0
			}
			if e.Op.IsDirect() {
				weight = CostDirect
			} else {
				weight = CostInclusion
			}
		}
		return Estimate{Card: card, Cost: l.Cost + r.Cost + float64(l.Card+r.Card)*weight}
	default:
		return Estimate{}
	}
}

// StreamEstimate adapts the materializing estimate of e to the streaming
// executor under a LIMIT: a consumer that stops after limit rows caps the
// output cardinality, and pays only the per-row pipeline cost for the rows
// it actually pulls. With no limit (or a limit the full answer doesn't
// reach) the estimate is the materializing one — a full drain does the same
// work. The cap models the executor's best case (candidates that all
// survive phase 2); like every estimate it steers nothing correctness
// depends on.
func StreamEstimate(e Expr, st *stats.Stats, limit int) Estimate {
	full := EstimateCost(e, st)
	if limit <= 0 || full.Card <= limit {
		return full
	}
	perRow := full.Cost / float64(full.Card)
	return Estimate{Card: limit, Cost: perRow * float64(limit)}
}

// lg is a branch-free log2 estimate for cost formulas.
func lg(n int) float64 {
	bits := 0
	for v := uint(n); v > 0; v >>= 1 {
		bits++
	}
	return float64(bits)
}
