package algebra

import (
	"qof/internal/index"
)

// Cardinality-aware costing. The paper's Definition 3.4 compares rewrites
// by operator counts alone; the index instance knows more: how many regions
// each name holds and how often each word occurs. An estimate reads those
// figures off the instance to bound how many regions each operator yields,
// which the plan's static operand order (optimizer.OrderOperands) and
// Explain use. Estimates are upper bounds, so Card == 0 means provably
// empty — e.g. a σ_w selection whose word never occurs in the document.

// Estimate bounds the result of evaluating an expression against an
// instance.
type Estimate struct {
	// Card is an upper bound on the number of regions in the result;
	// 0 means the result is provably empty.
	Card int
	// Cost estimates the work of evaluating the expression, in the same
	// abstract units as the static Cost weights scaled by cardinality.
	Cost float64
}

// EstimateCost estimates the output cardinality and evaluation cost of e
// on the instance in: a name's cardinality is its set's length (0 if
// unindexed), σ_w selectivity comes from the word's posting list, inclusion
// output is bounded by |R|, and set operations by their operands. in must
// be non-nil. Correctness never depends on the estimates — they order
// work, and Card is a sound upper bound whenever every Name in e is
// indexed on in.
func EstimateCost(e Expr, in *index.Instance) Estimate {
	switch e := e.(type) {
	case Name:
		set, _ := in.Region(e.Ident)
		return Estimate{Card: set.Len(), Cost: 1}
	case Word:
		return Estimate{Card: wordFreq(in, e.W), Cost: 1}
	case Prefix:
		// Binary search over the dictionary plus a sort of the hits;
		// the number of matches is unknown, so only the token total
		// bounds it.
		return Estimate{Card: in.Words().TokenCount(), Cost: 1 + lg(in.Words().TokenCount())}
	case Match:
		// Suffix-array lookup; occurrences have distinct starts.
		return Estimate{Card: in.Document().Len(), Cost: 1 + lg(in.Document().Len())}
	case Select:
		arg := EstimateCost(e.Arg, in)
		card := arg.Card
		if e.Mode == SelContains && wordFreq(in, e.W) == 0 {
			card = 0 // the word never occurs, so no region contains it
		}
		return Estimate{Card: card, Cost: arg.Cost + float64(arg.Card)*CostSelect}
	case Unary:
		arg := EstimateCost(e.Arg, in)
		return Estimate{Card: arg.Card, Cost: arg.Cost + float64(arg.Card)*CostNest}
	case Near:
		l := EstimateCost(e.E, in)
		r := EstimateCost(e.To, in)
		card := l.Card
		if r.Card == 0 {
			card = 0
		}
		return Estimate{Card: card, Cost: l.Cost + r.Cost + float64(l.Card+r.Card)*CostSelect}
	case Freq:
		arg := EstimateCost(e.Arg, in)
		card := arg.Card
		if e.N > 0 && wordFreq(in, e.W) < e.N {
			card = 0 // fewer total occurrences than the threshold
		}
		return Estimate{Card: card, Cost: arg.Cost + float64(arg.Card)*CostSelect}
	case Binary:
		l := EstimateCost(e.L, in)
		r := EstimateCost(e.R, in)
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
func StreamEstimate(e Expr, in *index.Instance, limit int) Estimate {
	full := EstimateCost(e, in)
	if limit <= 0 || full.Card <= limit {
		return full
	}
	perRow := full.Cost / float64(full.Card)
	return Estimate{Card: limit, Cost: perRow * float64(limit)}
}

// wordFreq returns the occurrence count of the exact word w: its posting
// list's length, one binary search over the dictionary.
func wordFreq(in *index.Instance, w string) int { return in.Words().Postings(w).Len() }

// lg is a branch-free log2 estimate for cost formulas.
func lg(n int) float64 {
	bits := 0
	for v := uint(n); v > 0; v >>= 1 {
		bits++
	}
	return float64(bits)
}
