package diff_test

import (
	"fmt"
	"testing"

	"qof/internal/algebra"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/refeval"
	"qof/internal/refeval/diff"
	"qof/internal/region"
	"qof/internal/text"
)

// shapeDoc is the document of the hand-built instances: words at known
// offsets (alpha [0,5), beta [6,10), gamma [11,16), delta [17,22), …).
const shapeDoc = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu"

// regions builds a set from start, end pairs.
func regions(pos ...int) region.Set {
	rs := make([]region.Region, 0, len(pos)/2)
	for i := 0; i+1 < len(pos); i += 2 {
		rs = append(rs, region.Of(pos[i], pos[i+1]))
	}
	return region.FromRegions(rs)
}

// nestedRun is depth regions, each strictly inside the one before.
func nestedRun(depth int) region.Set {
	var pos []int
	for i := 0; i < depth; i++ {
		pos = append(pos, i, len(shapeDoc)-i)
	}
	return regions(pos...)
}

// TestDifferentialShapes runs instances no grammar builds through the
// differential harness: the shapes on which the nearest-container sweep
// cannot decide a region from its stack and falls back to the definition
// (a partial overlap, an empty region where two regions touch), equal
// regions under two names, and a name nested in itself deeper than sgml's
// fixture. Every ⊃d and ⊂d between two names, with and without word and
// match points, and a generated workload must agree with refeval.
func TestDifferentialShapes(t *testing.T) {
	x := index.NewWordIndex(text.NewDocument("shapes.txt", shapeDoc))
	for _, c := range []struct {
		name string
		sets map[string]region.Set
	}{
		{"partial overlaps", map[string]region.Set{
			"A": regions(0, 16, 30, 50),
			"B": regions(6, 22, 40, 60),
			"C": regions(6, 10, 11, 16, 41, 45),
		}},
		{"an empty region where two touch", map[string]region.Set{
			"L": regions(0, 10, 23, 30),
			"R": regions(10, 22, 30, 44),
			"E": regions(10, 10, 30, 30, 36, 36),
		}},
		{"equal regions under two names", map[string]region.Set{
			"X": regions(0, 22, 23, 44),
			"Y": regions(0, 22, 30, 44),
			"Z": regions(6, 10, 30, 35),
		}},
		{"deep self-nesting", map[string]region.Set{
			"Sec":  nestedRun(14),
			"Para": regions(17, 22, 23, 30, 31, 35),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := index.New(x, c.sets, nil)
			h := &diff.Harness{Name: c.name, In: in, Ref: refeval.New(in)}
			names := in.Names()
			var exprs []algebra.Expr
			for _, a := range names {
				for _, b := range names {
					for _, op := range []string{">d", "<d"} {
						exprs = append(exprs,
							algebra.MustParse(fmt.Sprintf("%s %s %s", a, op, b)),
							algebra.MustParse(fmt.Sprintf("(%s + word(%q)) %s %s", a, "gamma", op, b)),
							algebra.MustParse(fmt.Sprintf("%s %s match(%q)", a, op, "amm")),
						)
					}
				}
			}
			words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
			gen := qgen.NewExprGen(names, words, []string{"e", "ga"}, []string{"amm", "a ", "elt"}, exprSeed)
			for i := 0; i < 200; i++ {
				exprs = append(exprs, gen.Expr())
			}
			nonEmpty := 0
			for i, e := range exprs {
				if err := h.CheckExpr(e); err != nil {
					t.Fatalf("expr %d: %v", i, err)
				}
				if got, err := h.Ref.Eval(e); err == nil && !got.IsEmpty() {
					nonEmpty++
				}
			}
			if nonEmpty < len(exprs)/5 {
				t.Errorf("only %d of %d expressions had non-empty answers", nonEmpty, len(exprs))
			}
		})
	}
}
