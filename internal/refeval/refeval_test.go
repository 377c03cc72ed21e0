package refeval_test

import (
	"errors"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/index"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/text"
	"qof/internal/xsql"
)

// handInstance builds a small instance with hand-placed regions:
//
//	content: "alpha beta gamma alpha delta beta"
//	          0     6    11    17    23    29
//	A = whole document, B = two halves, C = the two alpha words
func handInstance(t *testing.T) *index.Instance {
	t.Helper()
	doc := text.NewDocument("hand.txt", "alpha beta gamma alpha delta beta")
	return index.New(index.NewWordIndex(doc), map[string]region.Set{
		"A": region.FromRegions([]region.Region{{Start: 0, End: 33}}),
		"B": region.FromRegions([]region.Region{{Start: 0, End: 16}, {Start: 17, End: 33}}),
		"C": region.FromRegions([]region.Region{{Start: 0, End: 5}, {Start: 17, End: 22}}),
	}, nil)
}

// TestEvalAgainstFastEvaluator checks the naive evaluator against the real
// one on every operator over the hand instance. This is the base case the
// differential harness scales up.
func TestEvalAgainstFastEvaluator(t *testing.T) {
	in := handInstance(t)
	ref := refeval.New(in)
	fast := algebra.NewEvaluator(in)

	exprs := []string{
		`word("alpha")`,
		`word("beta")`,
		`word("missing")`,
		`prefix("al")`,
		`prefix("gam")`,
		`match("a b")`,
		`match("alpha")`,
		`A + B`,
		`A & B`,
		`A - B`,
		`B - A`,
		`A > C`,
		`B > C`,
		`C < A`,
		`C < B`,
		`A >d C`,
		`A >d B`,
		`B >d C`,
		`C <d A`,
		`C <d B`,
		`innermost(A + B + C)`,
		`outermost(A + B + C)`,
		`innermost(B)`,
		`contains(B, "alpha")`,
		`contains(B, "gamma")`,
		`equals(C, "alpha")`,
		`equals(B, "alpha beta gamma")`,
		`starts(B, "alpha")`,
		`starts(B, "xy")`,
		`near(C, word("beta"), 1)`,
		`near(C, word("gamma"), 0)`,
		`near(C, word("delta"), 30)`,
		`freq(B, "beta", 1)`,
		`freq(B, "beta", 2)`,
		`freq(B, "beta", 0)`,
		`(A > C) + contains(B, "delta")`,
		`innermost((A + B) > C)`,
	}
	for _, src := range exprs {
		e := algebra.MustParse(src)
		want, err := fast.Eval(e)
		if err != nil {
			t.Fatalf("fast eval %s: %v", src, err)
		}
		got, err := ref.Eval(e)
		if err != nil {
			t.Fatalf("ref eval %s: %v", src, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s:\n  fast: %v\n  ref:  %v", src, want, got)
		}
	}
}

// TestEvalNotIndexed checks error parity with the fast evaluator on
// unindexed names.
func TestEvalNotIndexed(t *testing.T) {
	in := handInstance(t)
	ref := refeval.New(in)
	fast := algebra.NewEvaluator(in)
	e := algebra.MustParse(`A > Missing`)
	if _, err := ref.Eval(e); !errors.Is(err, algebra.ErrNotIndexed) {
		t.Fatalf("ref error = %v, want ErrNotIndexed", err)
	}
	if _, err := fast.Eval(e); !errors.Is(err, algebra.ErrNotIndexed) {
		t.Fatalf("fast error = %v, want ErrNotIndexed", err)
	}
}

// TestDirectInclusionUsesUniverse pins the defining property of ⊃d: a region
// of a third indexed set strictly between the pair breaks directness.
func TestDirectInclusionUsesUniverse(t *testing.T) {
	doc := text.NewDocument("u.txt", "aaaaaaaaaa")
	in := index.New(index.NewWordIndex(doc), map[string]region.Set{
		"Outer": region.FromRegions([]region.Region{{Start: 0, End: 10}}),
		"Mid":   region.FromRegions([]region.Region{{Start: 1, End: 9}}),
		"Inner": region.FromRegions([]region.Region{{Start: 2, End: 8}}),
	}, nil)
	ref := refeval.New(in)

	got, err := ref.Eval(algebra.MustParse(`Outer >d Inner`))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsEmpty() {
		t.Errorf("Outer >d Inner = %v, want empty (Mid intervenes)", got)
	}
	got, err = ref.Eval(algebra.MustParse(`Outer >d Mid`))
	if err != nil {
		t.Fatal(err)
	}
	want := region.FromRegions([]region.Region{{Start: 0, End: 10}})
	if !got.Equal(want) {
		t.Errorf("Outer >d Mid = %v, want %v", got, want)
	}
}

// TestOracleAgainstEngineSmoke runs the oracle on a real BibTeX corpus and a
// couple of hand queries; the full workout lives in refeval/diff.
func TestOracleAgainstEngineSmoke(t *testing.T) {
	cfg := bibtex.DefaultConfig(8)
	cfg.Seed = 7
	src, _ := bibtex.Generate(cfg)
	doc := text.NewDocument("smoke.bib", src)
	cat := bibtex.Catalog()
	o, err := refeval.NewOracle(cat, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r.Title FROM References r WHERE r.Year = "1990"`,
		`SELECT r FROM References r`,
	} {
		q := xsql.MustParse(qs)
		res, err := o.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if res.Projected != (len(q.Select.Segs) > 0) {
			t.Errorf("%s: Projected = %v", qs, res.Projected)
		}
		if !res.Projected && len(res.Objects) != res.Regions.Len() {
			t.Errorf("%s: %d objects but %d regions", qs, len(res.Objects), res.Regions.Len())
		}
	}
	if _, err := o.Query(xsql.MustParse(`SELECT x FROM Nope x`)); err == nil {
		t.Error("unbound class: want error")
	}
}
