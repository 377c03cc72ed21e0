package algebra

// PAT feature extensions beyond the paper's core subset. Section 3 notes
// that PAT "combines traditional text search capabilities (lexical,
// proximity, contextual, boolean) with some original powerful features
// (position and frequency search)"; these operators reproduce the
// proximity and frequency features over the region model:
//
//	near(e1, e2, k)   regions of e1 within k bytes of some region of e2
//	freq(e, "w", n)   regions of e containing at least n occurrences of w
//
// Both are selections on their left/first argument, so they compose with
// the inclusion operators like σ does.

import (
	"sort"

	"qof/internal/region"
)

// Near selects the regions of E whose distance to some region of To is at
// most K bytes (0 = touching or overlapping). Distance between regions is
// the gap between their closest endpoints.
type Near struct {
	E  Expr
	To Expr
	K  int
}

// Freq selects the regions of Arg containing at least N whole-word
// occurrences of W.
type Freq struct {
	Arg Expr
	W   string
	N   int
}

func (Near) isExpr() {}
func (Freq) isExpr() {}

func (e Near) String() string { return exprString(e) }
func (e Freq) String() string { return exprString(e) }

// evalNear computes the proximity selection: for each region of E, targets
// are scanned forward from the first start position ≥ r.Start and backward
// with a prefix-maximum of end positions bounding how far back a target
// could still reach within k bytes. Positions mix with the caller's k, so
// the arithmetic is in int.
func evalNear(E, To region.Set, k int) region.Set {
	if E.IsEmpty() || To.IsEmpty() {
		return region.Empty
	}
	targets := To.Regions()
	// prefMaxEnd[i] = max End among targets[0:i].
	prefMaxEnd := make([]int, len(targets)+1)
	prefMaxEnd[0] = -1 << 62
	for i, t := range targets {
		prefMaxEnd[i+1] = max(prefMaxEnd[i], int(t.End))
	}
	return E.Filter(func(r region.Region) bool {
		i := sort.Search(len(targets), func(i int) bool { return targets[i].Start >= r.Start })
		for j := i; j < len(targets); j++ {
			if int(targets[j].Start)-int(r.End) > k {
				break // later targets start even further right
			}
			if gap(r, targets[j]) <= k {
				return true
			}
		}
		for j := i - 1; j >= 0; j-- {
			if prefMaxEnd[j+1] < int(r.Start)-k {
				break // no earlier target reaches within k
			}
			if gap(r, targets[j]) <= k {
				return true
			}
		}
		return false
	})
}

// gap returns the byte distance between two regions (0 if they touch or
// overlap).
func gap(a, b region.Region) int {
	switch {
	case b.Start >= a.End:
		return int(b.Start) - int(a.End)
	case a.Start >= b.End:
		return int(a.Start) - int(b.End)
	default:
		return 0
	}
}

// evalFreq counts occurrences of w inside each region. The occurrences are
// read in place and, having one width, end in the order they start: those
// within r are a run, and r holds n of them when the n-th from the first
// starting inside it ends within it.
func (ev *Evaluator) evalFreq(arg region.Set, w string, n int) region.Set {
	if n <= 0 {
		return arg
	}
	occ := ev.in.Words().Postings(w)
	if occ.Len() < n {
		return region.Empty
	}
	return arg.Filter(func(r region.Region) bool {
		lo := sort.Search(occ.Len(), func(i int) bool { return occ.At(i).Start >= r.Start })
		return lo+n <= occ.Len() && occ.At(lo+n-1).End <= r.End
	})
}
