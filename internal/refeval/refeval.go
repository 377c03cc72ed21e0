// Package refeval is the differential-testing oracle of the system: a naive
// reference evaluator that computes every region-algebra operation and every
// XSQL query by direct definition-chasing, with none of the machinery the
// real pipeline relies on — no sweep algorithms, no optimizer, no CSE memo,
// no plan cache, no parallelism, no index-only shortcuts.
//
// The implementations here are deliberately quadratic (cubic for the direct
// inclusion operators): each operator is a literal transcription of its
// set-builder definition from Section 3 of the paper, so the code is easy to
// audit by eye. The diff subpackage runs randomly generated queries through
// both this oracle and the full engine and fails on any disagreement, which
// is how Theorem 3.6 — every rewrite is semantics-preserving — is checked on
// far more inputs than the hand-written tests cover.
package refeval

import (
	"fmt"
	"strings"

	"qof/internal/algebra"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

// Evaluator evaluates region-algebra expressions against an index instance
// by brute force. It reads only the instance's named region sets and the
// document text; the word index, the region Universe and the sweep
// implementations are never consulted.
type Evaluator struct {
	in     *index.Instance
	tokens []text.Token // document tokenization, computed once
}

// New creates a reference evaluator over the instance.
func New(in *index.Instance) *Evaluator {
	return &Evaluator{
		in:     in,
		tokens: text.Tokenize(in.Document().Content()),
	}
}

// Eval evaluates e by definition-chasing. Errors match the real evaluator's
// contract: an unindexed region name yields an error wrapping
// algebra.ErrNotIndexed.
func (ev *Evaluator) Eval(e algebra.Expr) (region.Set, error) {
	rs, err := ev.eval(e)
	if err != nil {
		return region.Empty, err
	}
	return region.FromRegions(rs), nil
}

// eval returns an unordered region slice (with possible duplicates); Eval
// normalizes at the end so intermediate steps stay definition-shaped.
func (ev *Evaluator) eval(e algebra.Expr) ([]region.Region, error) {
	switch e := e.(type) {
	case algebra.Name:
		s, ok := ev.in.Region(e.Ident)
		if !ok {
			return nil, fmt.Errorf("refeval: region %q: %w", e.Ident, algebra.ErrNotIndexed)
		}
		return s.Regions(), nil
	case algebra.Word:
		return ev.wordRegions(e.W), nil
	case algebra.Prefix:
		content := ev.in.Document().Content()
		var out []region.Region
		for _, tok := range ev.tokens {
			if strings.HasPrefix(content[tok.Start:tok.End], e.P) {
				out = append(out, region.Of(tok.Start, tok.End))
			}
		}
		return out, nil
	case algebra.Match:
		if e.S == "" {
			return nil, nil
		}
		content := ev.in.Document().Content()
		var out []region.Region
		for i := 0; i+len(e.S) <= len(content); i++ {
			if content[i:i+len(e.S)] == e.S {
				out = append(out, region.Of(i, i+len(e.S)))
			}
		}
		return out, nil
	case algebra.Select:
		arg, err := ev.eval(e.Arg)
		if err != nil {
			return nil, err
		}
		return ev.selectRegions(arg, e.Mode, e.W), nil
	case algebra.Unary:
		arg, err := ev.eval(e.Arg)
		if err != nil {
			return nil, err
		}
		if e.Op == algebra.OpInnermost {
			return innermost(arg), nil
		}
		return outermost(arg), nil
	case algebra.Near:
		l, err := ev.eval(e.E)
		if err != nil {
			return nil, err
		}
		to, err := ev.eval(e.To)
		if err != nil {
			return nil, err
		}
		return near(l, to, e.K), nil
	case algebra.Freq:
		arg, err := ev.eval(e.Arg)
		if err != nil {
			return nil, err
		}
		return ev.freq(arg, e.W, e.N), nil
	case algebra.Binary:
		l, err := ev.eval(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case algebra.OpUnion:
			return append(append([]region.Region(nil), l...), r...), nil
		case algebra.OpDiff:
			return diff(l, r), nil
		case algebra.OpIntersect:
			return intersect(l, r), nil
		case algebra.OpIncluding:
			return including(l, r), nil
		case algebra.OpIncluded:
			return included(l, r), nil
		case algebra.OpDirIncluding:
			return directlyIncluding(l, r, ev.universe()), nil
		case algebra.OpDirIncluded:
			return directlyIncluded(l, r, ev.universe()), nil
		default:
			return nil, fmt.Errorf("refeval: unknown operator %v", e.Op)
		}
	default:
		return nil, fmt.Errorf("refeval: unknown expression %T", e)
	}
}

// universe is every indexed region of every name — the "other regions" a
// direct inclusion must rule out. It is recomputed per use: correctness over
// speed.
func (ev *Evaluator) universe() []region.Region {
	var out []region.Region
	for _, name := range ev.in.Names() {
		out = append(out, ev.in.MustRegion(name).Regions()...)
	}
	return out
}

// wordRegions returns a word-width region for every token whose text is
// exactly w.
func (ev *Evaluator) wordRegions(w string) []region.Region {
	content := ev.in.Document().Content()
	var out []region.Region
	for _, tok := range ev.tokens {
		if content[tok.Start:tok.End] == w {
			out = append(out, region.Of(tok.Start, tok.End))
		}
	}
	return out
}

// selectRegions applies σ by scanning every token for every region.
func (ev *Evaluator) selectRegions(arg []region.Region, mode algebra.SelMode, w string) []region.Region {
	content := ev.in.Document().Content()
	var out []region.Region
	for _, r := range arg {
		keep := false
		switch mode {
		case algebra.SelContains:
			for _, tok := range ev.tokens {
				if tok.Start >= int(r.Start) && tok.End <= int(r.End) && content[tok.Start:tok.End] == w {
					keep = true
					break
				}
			}
		case algebra.SelEquals:
			keep = content[r.Start:r.End] == w
		default: // SelPrefix
			keep = strings.HasPrefix(content[r.Start:r.End], w)
		}
		if keep {
			out = append(out, r)
		}
	}
	return out
}

// freq keeps the regions containing at least n whole-token occurrences of w;
// n ≤ 0 keeps everything (every region trivially has ≥ 0 occurrences).
func (ev *Evaluator) freq(arg []region.Region, w string, n int) []region.Region {
	if n <= 0 {
		return arg
	}
	content := ev.in.Document().Content()
	var out []region.Region
	for _, r := range arg {
		count := 0
		for _, tok := range ev.tokens {
			if tok.Start >= int(r.Start) && tok.End <= int(r.End) && content[tok.Start:tok.End] == w {
				count++
			}
		}
		if count >= n {
			out = append(out, r)
		}
	}
	return out
}

// near keeps the regions of E within k bytes of some region of To, where the
// distance of overlapping or touching regions is 0.
func near(E, To []region.Region, k int) []region.Region {
	var out []region.Region
	for _, r := range E {
		for _, t := range To {
			gap := 0
			switch {
			case t.Start >= r.End:
				gap = int(t.Start) - int(r.End)
			case r.Start >= t.End:
				gap = int(r.Start) - int(t.End)
			}
			if gap <= k {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func contains(rs []region.Region, r region.Region) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

func diff(l, r []region.Region) []region.Region {
	var out []region.Region
	for _, x := range l {
		if !contains(r, x) {
			out = append(out, x)
		}
	}
	return out
}

func intersect(l, r []region.Region) []region.Region {
	var out []region.Region
	for _, x := range l {
		if contains(r, x) {
			out = append(out, x)
		}
	}
	return out
}

// including computes R ⊃ S: {r ∈ R : ∃s ∈ S, r ⊋ s} with the strict
// position-pair reading of inclusion.
func including(R, S []region.Region) []region.Region {
	var out []region.Region
	for _, r := range R {
		for _, s := range S {
			if r.StrictlyIncludes(s) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// included computes R ⊂ S: {r ∈ R : ∃s ∈ S, s ⊋ r}.
func included(R, S []region.Region) []region.Region {
	var out []region.Region
	for _, r := range R {
		for _, s := range S {
			if s.StrictlyIncludes(r) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// directlyIncluding computes R ⊃d S: r qualifies when it strictly includes
// some s with no universe region strictly in between.
func directlyIncluding(R, S, universe []region.Region) []region.Region {
	var out []region.Region
	for _, r := range R {
		if directWitness(r, S, universe, true) {
			out = append(out, r)
		}
	}
	return out
}

// directlyIncluded computes R ⊂d S: r qualifies when some s strictly
// includes it with no universe region strictly in between.
func directlyIncluded(R, S, universe []region.Region) []region.Region {
	var out []region.Region
	for _, r := range R {
		if directWitness(r, S, universe, false) {
			out = append(out, r)
		}
	}
	return out
}

// directWitness looks for an s ∈ S forming a direct pair with r: outer ⊋
// inner with no t strictly between them. including selects which side r is
// on.
func directWitness(r region.Region, S, universe []region.Region, including bool) bool {
	for _, s := range S {
		outer, inner := r, s
		if !including {
			outer, inner = s, r
		}
		if !outer.StrictlyIncludes(inner) {
			continue
		}
		between := false
		for _, t := range universe {
			if outer.StrictlyIncludes(t) && t.StrictlyIncludes(inner) {
				between = true
				break
			}
		}
		if !between {
			return true
		}
	}
	return false
}

// innermost computes ι(R): the regions of R including no other region of R.
func innermost(R []region.Region) []region.Region {
	var out []region.Region
	for _, r := range R {
		minimal := true
		for _, other := range R {
			if other != r && r.Includes(other) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, r)
		}
	}
	return out
}

// outermost computes ω(R): the regions of R included in no other region of R.
func outermost(R []region.Region) []region.Region {
	var out []region.Region
	for _, r := range R {
		maximal := true
		for _, other := range R {
			if other != r && other.Includes(r) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, r)
		}
	}
	return out
}
