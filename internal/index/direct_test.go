package index_test

import (
	"runtime"
	"sync"
	"testing"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/text"
)

// ⊃d and ⊂d build what they read per call — the ⊃ answers of the named
// sets and their merge — and nothing on the instance: an instance holds no
// state built after index.New for them, so concurrent calls share nothing
// but the sets.

const directExpr = `Name >d Last_Name`

// TestEngineBuildsNoUniverse: an engine over a 5 000-reference full-spec
// instance (132k regions) builds nothing: no merge of the named sets and no
// copy of the word counts.
func TestEngineBuildsNoUniverse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes under the race detector are not the program's")
	}
	cat, in := testutil.NewBibInstance(t, 5000, grammar.IndexSpec{})
	cat.Choice(in) // the schema's, resolved once for every file under this indexing
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	engine.New(cat, in)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1024 {
		t.Errorf("engine.New allocated %d B over %d regions, ceiling 1 KB", b, in.RegionCount())
	}
}

// TestDirectOperatorMatchesOracle: a ⊃d through either evaluator answers
// what the brute-force oracle does.
func TestDirectOperatorMatchesOracle(t *testing.T) {
	e := algebra.MustParse(directExpr)
	for name, eval := range map[string]func(*algebra.Evaluator) (region.Set, error){
		"EvalContext": func(ev *algebra.Evaluator) (region.Set, error) { return ev.EvalContext(t.Context(), e, nil, nil) },
		"StreamEval":  func(ev *algebra.Evaluator) (region.Set, error) { return ev.StreamEval(t.Context(), e, nil, nil) },
	} {
		_, in := testutil.NewBibInstance(t, 30, grammar.IndexSpec{})
		got, err := eval(algebra.NewEvaluator(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refeval.New(in).Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.IsEmpty() {
			t.Errorf("%s: %s = %d regions, oracle %d", name, directExpr, got.Len(), want.Len())
		}
	}
}

// TestConcurrentDirectInclusion: eight goroutines running ⊃d and ⊂d on one
// instance at once each get the brute-force oracle's answer. Run under -race.
func TestConcurrentDirectInclusion(t *testing.T) {
	_, in := testutil.NewBibInstance(t, 200, grammar.IndexSpec{})
	exprs := []algebra.Expr{algebra.MustParse(directExpr), algebra.MustParse(`Last_Name <d Name`)}
	want := make([]region.Set, len(exprs))
	for i, e := range exprs {
		w, err := refeval.New(in).Eval(e)
		if err != nil || w.IsEmpty() {
			t.Fatalf("%s: oracle %v (err %v)", e, w, err)
		}
		want[i] = w
	}
	ev := algebra.NewEvaluator(in)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, e := range exprs {
				got, err := ev.EvalContext(t.Context(), e, nil, nil)
				if err != nil || !got.Equal(want[i]) {
					t.Errorf("goroutine %d: %s = %d regions (err %v), want %d", g, e, got.Len(), err, want[i].Len())
				}
			}
		}()
	}
	wg.Wait()
}

// TestUniverseFollowsTheInstance: ⊃d rules out the regions its own
// instance indexes, so a name one instance adds between two regions is
// between them there and nowhere else.
func TestUniverseFollowsTheInstance(t *testing.T) {
	x := index.NewWordIndex(text.NewDocument("t", "alpha beta gamma delta"))
	sets := map[string]region.Set{
		"Outer": region.FromRegions([]region.Region{{Start: 0, End: 22}}),
		"Inner": region.FromRegions([]region.Region{{Start: 0, End: 5}}),
	}
	in := index.New(x, sets, nil)
	direct := func(in *index.Instance) int {
		t.Helper()
		s, err := algebra.NewEvaluator(in).EvalContext(t.Context(), algebra.MustParse(`Outer >d Inner`), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.Len()
	}
	sets["Mid"] = region.FromRegions([]region.Region{{Start: 0, End: 10}})
	if got := direct(index.New(x, sets, nil)); got != 0 {
		t.Fatalf("with Mid between: Outer ⊃d Inner = %d regions, want 0", got)
	}
	if got := direct(in); got != 1 {
		t.Fatalf("without Mid: Outer ⊃d Inner = %d regions, want 1", got)
	}
}

// BenchmarkDirectSweep is ⊃d through the set evaluator on the full spec at
// 20 000 references (530k regions in 17 named sets), a selective and a
// whole-set contained side: the ⊃ kernels of the containers and of every
// named set, the merge of their answers and the sweep, all per call.
func BenchmarkDirectSweep(b *testing.B) {
	_, in := testutil.NewBibInstance(b, 20000, grammar.IndexSpec{})
	ev := algebra.NewEvaluator(in)
	for _, src := range []string{`Name >d equals(Last_Name, "Chang")`, directExpr} {
		e := algebra.MustParse(src)
		b.Run(src, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
