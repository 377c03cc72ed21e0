package index_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/text"
	"qof/internal/xsql"
)

// The universe of all indexed regions is read by the direct-inclusion
// operators and nothing else, so nothing else builds it: not the index
// build, not engine.New, not a query that has no ⊃d or
// ⊂d in its plan. These tests pin that by counting — bytes allocated, a
// built-or-not flag — rather than by a clock.

const directExpr = `Name >d Last_Name`

// TestEngineBuildsNoUniverse: an engine over a 5 000-reference full-spec
// instance builds nothing: neither the universe (132k regions here) nor a
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
	eng := engine.New(cat, in)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1024 {
		t.Errorf("engine.New allocated %d B over %d regions, ceiling 1 KB", b, in.RegionCount())
	}
	if index.UniverseBuilt(eng.Instance()) {
		t.Error("engine.New built the universe")
	}
}

// TestQueriesBuildNoUniverse: an engine and one query of each shape the
// benchmark runs leave the universe unbuilt.
func TestQueriesBuildNoUniverse(t *testing.T) {
	partial := grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}
	for _, c := range []struct {
		shape string
		spec  grammar.IndexSpec
		q     string
		check func(st engine.Stats) bool
	}{
		{"index-only projection", grammar.IndexSpec{},
			`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
			func(st engine.Stats) bool { return st.IndexOnly }},
		{"streamed CONTAINS", grammar.IndexSpec{},
			`SELECT r.Title FROM References r WHERE r.Keywords CONTAINS "system"`,
			func(st engine.Stats) bool { return st.Parsed > 0 }},
		{"phase-2 parse", partial,
			`SELECT r.Key FROM References r WHERE r.Abstract CONTAINS "system"`,
			func(st engine.Stats) bool { return !st.Exact && st.Parsed > 0 }},
		{"fast join", grammar.IndexSpec{},
			`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
			func(st engine.Stats) bool { return st.JoinFast }},
		{"exact select with LIMIT", grammar.IndexSpec{},
			`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = "Chang" LIMIT 3`,
			func(st engine.Stats) bool { return st.Exact && st.Parsed == 0 && st.Results == 3 }},
	} {
		f := testutil.NewBibFixture(t, 300, c.spec, nil)
		if index.UniverseBuilt(f.In) {
			t.Fatalf("%s: the build or engine.New built the universe", c.shape)
		}
		res, err := f.Eng.Execute(xsql.MustParse(c.q))
		if err != nil {
			t.Fatalf("%s: %v", c.shape, err)
		}
		if !c.check(res.Stats) {
			t.Fatalf("%s: %+v is not the shape the case is about", c.shape, res.Stats)
		}
		if index.UniverseBuilt(f.In) {
			t.Errorf("%s: %s built the universe", c.shape, c.q)
		}
	}
}

// TestDirectOperatorBuildsUniverse: a ⊃d through either evaluator is what
// builds the universe, and both answer what the brute-force oracle does.
func TestDirectOperatorBuildsUniverse(t *testing.T) {
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
		if !index.UniverseBuilt(in) {
			t.Errorf("%s: %s left the universe unbuilt", name, directExpr)
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

// TestUniverseConcurrentFirstUse: eight goroutines making the first ⊃d call
// at once get one answer and one universe — the ones who did not build it
// waited for the one who did.
func TestUniverseConcurrentFirstUse(t *testing.T) {
	_, in := testutil.NewBibInstance(t, 200, grammar.IndexSpec{})
	ev := algebra.NewEvaluator(in)
	e := algebra.MustParse(directExpr)
	const n = 8
	answers := make([]region.Set, n)
	seen := make([]*region.Universe, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			answers[i], errs[i] = ev.EvalContext(t.Context(), e, nil, nil)
			seen[i] = in.Universe()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !answers[i].Equal(answers[0]) || answers[i].IsEmpty() {
			t.Errorf("goroutine %d: %d regions, goroutine 0 %d", i, answers[i].Len(), answers[0].Len())
		}
		if seen[i] != seen[0] {
			t.Errorf("goroutine %d saw another universe than goroutine 0", i)
		}
	}
}

// TestUniverseFollowsTheInstance: a build its checker aborts stores nothing
// and the next caller builds; each instance has its own universe, so ⊃d
// sees the names its instance indexes.
func TestUniverseFollowsTheInstance(t *testing.T) {
	x := index.NewWordIndex(text.NewDocument("t", "alpha beta gamma delta"))
	sets := map[string]region.Set{
		"Outer": region.FromRegions([]region.Region{{Start: 0, End: 22}}),
		"Inner": region.FromRegions([]region.Region{{Start: 0, End: 5}}),
	}
	in := index.New(x, sets, nil)

	boom := errors.New("boom")
	if u, err := in.UniverseCtl(func() error { return boom }); !errors.Is(err, boom) || u != nil {
		t.Fatalf("aborted build: universe %v, err %v", u, err)
	}
	if index.UniverseBuilt(in) {
		t.Fatal("an aborted build stored a universe")
	}

	direct := func(in *index.Instance) int {
		t.Helper()
		s, err := algebra.NewEvaluator(in).EvalContext(t.Context(), algebra.MustParse(`Outer >d Inner`), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !index.UniverseBuilt(in) {
			t.Fatal("⊃d left the universe unbuilt")
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

// BenchmarkNewUniverse is the universe build on the full spec at 20 000
// references (530k regions in 17 named sets): one merge into a slice of
// exactly the union's size and one forest sweep. B/op is the number to
// read: the union and the forest, about 12.7 MB, and nothing else.
func BenchmarkNewUniverse(b *testing.B) {
	_, in := testutil.NewBibInstance(b, 20000, grammar.IndexSpec{})
	var sets []region.Set
	for _, name := range in.Names() {
		sets = append(sets, in.MustRegion(name))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := region.NewUniverse(sets, nil); err != nil {
			b.Fatal(err)
		}
	}
}
