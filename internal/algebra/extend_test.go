package algebra

import (
	"math/rand"
	"testing"

	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

func TestNearBasic(t *testing.T) {
	in := fixture(t)
	// Authors regions near ("touching within 1 byte") their Editors
	// neighbour: in the fixture layout "... Chang EDITOR ..." the gap is
	// 1 space.
	got := evalStr(t, in, `Authors & near(Authors, Editors, 1)`)
	if got.Len() != 2 {
		t.Fatalf("near(Authors, Editors, 1) = %v", got)
	}
	// Distance 0 requires touching/overlap: the space separates them.
	if got := evalStr(t, in, `near(Authors, Editors, 0)`); !got.IsEmpty() {
		t.Fatalf("near 0 = %v", got)
	}
	// A name is near itself-containing regions (overlap → gap 0).
	if got := evalStr(t, in, `near(Name, Authors, 0)`); got.Len() != 2 {
		t.Fatalf("overlapping near = %v", got)
	}
	// Empty side.
	if got := evalStr(t, in, `near(Authors, Authors - Authors, 5)`); !got.IsEmpty() {
		t.Fatalf("near empty = %v", got)
	}
}

func TestNearMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		E := randomSet(rng, 25, 60)
		To := randomSet(rng, 25, 60)
		k := rng.Intn(8)
		got := evalNear(E, To, k)
		want := E.Filter(func(r region.Region) bool {
			for _, s := range To.Regions() {
				if gap(r, s) <= k {
					return true
				}
			}
			return false
		})
		if !got.Equal(want) {
			t.Fatalf("trial %d k=%d: E=%v To=%v: got %v want %v", trial, k, E, To, got, want)
		}
	}
}

func randomSet(rng *rand.Rand, n, span int) region.Set {
	rs := make([]region.Region, 0, n)
	for i := 0; i < rng.Intn(n)+1; i++ {
		a := rng.Intn(span)
		b := a + rng.Intn(span-a) + 1
		rs = append(rs, region.Of(a, b))
	}
	return region.FromRegions(rs)
}

func TestFreq(t *testing.T) {
	// "Corliss" appears twice in the second reference's line? Build a
	// dedicated doc: a region with repeated words.
	doc := text.NewDocument("f", "[ alpha beta alpha gamma alpha ] [ beta beta ]")
	in := index.New(index.NewWordIndex(doc), map[string]region.Set{
		"Block": region.FromRegions([]region.Region{{Start: 0, End: 32}, {Start: 33, End: 46}}),
	}, nil)
	ev := NewEvaluator(in)

	cases := []struct {
		src  string
		want int
	}{
		{`freq(Block, "alpha", 1)`, 1},
		{`freq(Block, "alpha", 3)`, 1},
		{`freq(Block, "alpha", 4)`, 0},
		{`freq(Block, "beta", 1)`, 2},
		{`freq(Block, "beta", 2)`, 1},
		{`freq(Block, "zzz", 1)`, 0},
		{`freq(Block, "alpha", 0)`, 2}, // n ≤ 0 keeps everything
	}
	for _, tc := range cases {
		got, err := ev.Eval(MustParse(tc.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got.Len() != tc.want {
			t.Errorf("%s = %v, want %d regions", tc.src, got, tc.want)
		}
	}
}

func TestExtendedParsePrintRoundTrip(t *testing.T) {
	for _, src := range []string{
		`near(Authors, Editors, 5)`,
		`freq(Abstract, "taylor", 2)`,
		`Reference > freq(Abstract, "taylor", 2)`,
		`near(A + B, innermost(C), 0)`,
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if !Equal(e, again) {
			t.Errorf("round trip %q -> %q", src, e.String())
		}
	}
	for _, bad := range []string{
		`near(A, B)`,
		`near(A, B, )`,
		`near(A, B, x)`,
		`near(A, B, -1)`,
		`freq(A, 3, "w")`,
		`freq(A, "w")`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestExtendedCostAndStats(t *testing.T) {
	e := MustParse(`near(A, freq(B, "w", 2), 10)`)
	if Cost(e) != CostInclusion+CostSelect {
		t.Errorf("Cost = %d", Cost(e))
	}
	in := fixture(t)
	var st Stats
	if _, err := NewEvaluator(in).EvalStats(MustParse(`near(Authors, Editors, 3)`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ops != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMatchTerm(t *testing.T) {
	in := fixture(t)
	got := evalStr(t, in, `Reference > match("EDITOR Alan")`)
	if got.Len() != 1 {
		t.Fatalf("match = %v", got)
	}
	// match round-trips through the printer.
	e := MustParse(`match("x y")`)
	if !Equal(e, MustParse(e.String())) {
		t.Error("round trip")
	}
	if got := evalStr(t, in, `match("zzz")`); !got.IsEmpty() {
		t.Errorf("absent = %v", got)
	}
}
