package algebra

import (
	"testing"

	"qof/internal/lru"
	"qof/internal/region"
)

// TestEvaluatorResultCache checks the evaluator side of the cross-query
// result cache: costly expressions are stored and served, cheap leaves are
// not, and a keyed read answers without evaluating.
func TestEvaluatorResultCache(t *testing.T) {
	in := fixture(t)
	ev := NewEvaluator(in)
	cache := lru.New[string, region.Set](256, "", "")
	ev.Results = cache
	// The key is the expression's text: the evaluator reads one instance,
	// and an instance never changes.
	cached := func(e Expr) (region.Set, bool) { return cache.Get(e.String()) }

	costly := MustParse(`Reference > Authors > contains(Last_Name, "Chang")`)
	if _, ok := cached(costly); ok {
		t.Fatal("cached read hit before any evaluation")
	}
	want, err := ev.Eval(costly)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("costly expression was not stored in the result cache")
	}
	var st Stats
	got, err := ev.EvalStats(costly, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHits == 0 {
		t.Errorf("repeat evaluation did not hit the result cache: %+v", st)
	}
	if !got.Equal(want) {
		t.Errorf("cached result %v differs from computed %v", got, want)
	}
	if s, ok := cached(costly); !ok || !s.Equal(want) {
		t.Errorf("cached read = %v, %v; want %v, true", s, ok, want)
	}

	// A bare name is below the cost threshold: evaluated, never cached.
	cheap := MustParse(`Reference`)
	before := cache.Len()
	if _, err := ev.Eval(cheap); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != before {
		t.Error("cheap leaf was stored in the result cache")
	}
	if _, ok := cached(cheap); ok {
		t.Error("cached read served a below-threshold expression")
	}
}
