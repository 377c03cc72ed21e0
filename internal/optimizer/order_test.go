package optimizer

import (
	"strings"
	"testing"

	"qof/internal/algebra"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

// orderInstance indexes a small instance where Small (2 regions) is much
// cheaper than Mid (50) and Big (500), and the word w occurs 3 times.
func orderInstance() *index.Instance {
	sets := make(map[string]region.Set)
	for name, n := range map[string]int{"Small": 2, "Mid": 50, "Big": 500} {
		rs := make([]region.Region, n)
		for i := range rs {
			rs[i] = region.Region{Start: int32(2 * i), End: int32(2*i + 1)}
		}
		sets[name] = region.FromRegions(rs)
	}
	doc := text.NewDocument("order", strings.Repeat("w x ", 3)+strings.Repeat("y ", 500))
	return index.New(index.NewWordIndex(doc), sets, nil)
}

func TestOrderOperands(t *testing.T) {
	in := orderInstance()
	if in.MustRegion("Big").Len() != 500 || in.MustRegion("Mid").Len() != 50 || in.MustRegion("Small").Len() != 2 || in.Words().Postings("w").Len() != 3 {
		t.Fatal("the fixture's cardinalities are not the ones the cases assume")
	}
	for _, tc := range []struct{ in, want string }{
		// Commutative operators get the cheap side first.
		{`Big & Small`, `Small & Big`},
		{`Big + Small`, `Small + Big`},
		{`Small & Big`, `Small & Big`}, // already ordered
		// Non-commutative operators keep their operand roles.
		{`Big - Small`, `Big - Small`},
		{`Big > Small`, `Big > Small`},
		{`Small < Big`, `Small < Big`},
		// Recursion reaches nested operands on every side.
		{`(Big & Small) - (Big + Small)`, `(Small & Big) - (Small + Big)`},
		{`innermost(Big & Small)`, `innermost(Small & Big)`},
		{`contains(Big & Small, "w")`, `contains(Small & Big, "w")`},
		{`near(Big & Small, Mid, 2)`, `near(Small & Big, Mid, 2)`},
		{`freq(Big & Small, "w", 2)`, `freq(Small & Big, "w", 2)`},
		// Leaves pass through untouched.
		{`word("w")`, `word("w")`},
	} {
		got := OrderOperands(algebra.MustParse(tc.in), in)
		if got.String() != algebra.MustParse(tc.want).String() {
			t.Errorf("OrderOperands(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestOrderOperandsNilStats(t *testing.T) {
	e := algebra.MustParse(`Big & Small`)
	if got := OrderOperands(e, nil); got.String() != e.String() {
		t.Errorf("nil stats must be a no-op, got %s", got)
	}
}
