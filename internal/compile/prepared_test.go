package compile_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/optimizer"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/rig"
	"qof/internal/testutil"
	"qof/internal/text"
	"qof/internal/xsql"
)

// The tests of the one plan cache: every engine, corpus and file of a schema
// prepares its queries through the catalog, so what used to be compiled per
// file is compiled per (query, indexing choice).

const (
	changQuery   = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`
	changSpelled = "SELECT r FROM References r\n WHERE r.Authors.Name.Last_Name = \"Chang\""
)

var partialSpec = grammar.IndexSpec{Names: []string{"Reference", "Key", "Last_Name"}}

// enginesOver builds one engine per document over one catalog.
func enginesOver(t *testing.T, cat *compile.Catalog, docs []*text.Document, spec grammar.IndexSpec) []*engine.Engine {
	t.Helper()
	out := make([]*engine.Engine, len(docs))
	for i, doc := range docs {
		in, _, err := cat.Grammar.BuildInstance(doc, spec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = engine.New(cat, in)
	}
	return out
}

// wantRegions is the answer of a fresh catalog's full compile run on a fresh
// engine: nothing the catalog under test remembers can have touched it.
func wantRegions(t *testing.T, in *index.Instance, src string) region.Set {
	t.Helper()
	res, err := engine.New(bibtex.Catalog(), in).Execute(xsql.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return res.Regions
}

// TestCompileOncePerTextAndChoice: N engines over one catalog, all started on
// the same query at once (run it under -race): the query is compiled once per
// indexing choice among them, whichever spelling or form it arrives in, and
// a second round compiles and parses nothing.
func TestCompileOncePerTextAndChoice(t *testing.T) {
	cat := bibtex.Catalog()
	docs := testutil.BibCorpusDocs(t, 6, 40)
	engines := append(enginesOver(t, cat, docs, grammar.IndexSpec{}), enginesOver(t, cat, docs, partialSpec)...)
	parses, compiles := compile.CountPreparation(t)

	round := func() {
		var wg sync.WaitGroup
		for i, eng := range engines {
			wg.Add(1)
			go func(i int, eng *engine.Engine) {
				defer wg.Done()
				var res *engine.Result
				var err error
				switch i % 3 {
				case 0: // the text, as a facade File sends it
					var p *compile.Prepared
					if p, err = cat.Prepare(changQuery); err == nil {
						res, err = eng.ExecutePrepared(context.Background(), p, engine.Limits{})
					}
				case 1: // another spelling of it
					var p *compile.Prepared
					if p, err = cat.Prepare(changSpelled); err == nil {
						res, err = eng.ExecutePrepared(context.Background(), p, engine.Limits{})
					}
				default: // already parsed, as the engine's own callers send it
					res, err = eng.Execute(xsql.MustParse(changQuery))
				}
				if err != nil {
					t.Error(err)
					return
				}
				if want := wantRegions(t, eng.Instance(), changQuery); !res.Regions.Equal(want) {
					t.Errorf("engine %d: got %v, want %v", i, res.Regions, want)
				}
			}(i, eng)
		}
		wg.Wait()
	}
	round()
	// wantRegions compiles on its own catalogs: one compile per engine.
	if got := compiles.Load() - int64(len(engines)); got != 2 {
		t.Errorf("first round compiled the query %d times over 2 indexing choices, want 2", got)
	}
	if cat.PreparedLen() != 2 {
		t.Errorf("%d texts kept for one query in two spellings, want 2", cat.PreparedLen())
	}
	p0, c0 := parses.Load(), compiles.Load()
	round()
	if got := compiles.Load() - c0 - int64(len(engines)); got != 0 {
		t.Errorf("second round compiled %d times, want 0", got)
	}
	if got := parses.Load() - p0; got != 0 {
		t.Errorf("second round parsed %d texts, want 0: both spellings are kept", got)
	}
}

// TestSecondExecutionPreparesNothing: a repeat of a text parses nothing and
// compiles nothing, on the engine that saw it first or on any other engine of
// the catalog, and says so in Stats.PlanCached.
func TestSecondExecutionPreparesNothing(t *testing.T) {
	cat := bibtex.Catalog()
	engines := enginesOver(t, cat, testutil.BibCorpusDocs(t, 2, 30), grammar.IndexSpec{})
	parses, compiles := compile.CountPreparation(t)
	run := func(eng *engine.Engine) *engine.Result {
		t.Helper()
		p, err := cat.Prepare(changSpelled)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.ExecutePrepared(context.Background(), p, engine.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(engines[0]).Stats.PlanCached {
		t.Error("the first execution cannot have found a plan")
	}
	if parses.Load() != 1 || compiles.Load() != 1 {
		t.Fatalf("first execution: %d parses, %d compiles, want 1 and 1", parses.Load(), compiles.Load())
	}
	for _, eng := range engines {
		if !run(eng).Stats.PlanCached {
			t.Error("a repeat did not report the plan cached")
		}
	}
	if parses.Load() != 1 || compiles.Load() != 1 {
		t.Errorf("after repeats on both engines: %d parses, %d compiles, want 1 and 1", parses.Load(), compiles.Load())
	}
}

// TestCorpusMixedSpecs: files indexed differently, one engine each, run one
// prepared query under a plan each, and both answer right.
func TestCorpusMixedSpecs(t *testing.T) {
	cat := bibtex.Catalog()
	docs := testutil.BibCorpusDocs(t, 2, 60)
	specs := []grammar.IndexSpec{{}, partialSpec}
	engs := make([]*engine.Engine, len(docs))
	for i, doc := range docs {
		in, _, err := cat.Grammar.BuildInstance(doc, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = engine.New(cat, in)
	}
	_, compiles := compile.CountPreparation(t)
	const src = `SELECT r FROM References r WHERE r.Abstract CONTAINS "term018"`
	p := cat.PrepareQuery(xsql.MustParse(src))
	res := make([]*engine.Result, len(engs))
	for i, eng := range engs {
		var err error
		if res[i], err = eng.ExecutePrepared(context.Background(), p, engine.Limits{}); err != nil {
			t.Fatal(err)
		}
		if res[i].Stats.Results == 0 {
			t.Fatalf("%s answers nothing", docs[i].Name())
		}
	}
	if compiles.Load() != 2 {
		t.Errorf("%d compiles for two indexing choices, want 2", compiles.Load())
	}
	// The full index decides CONTAINS on Abstract; the partial one cannot and
	// parses its candidates: different plans, visible in the statistics.
	if full, partial := res[0].Stats, res[1].Stats; !full.Exact || full.Parsed != 0 || partial.Exact || partial.Parsed == 0 {
		t.Errorf("full index: %+v\npartial index: %+v", full, partial)
	}
	for i, eng := range engs {
		if want := wantRegions(t, eng.Instance(), src); !res[i].Regions.Equal(want) {
			t.Errorf("%s: got %v, want %v", docs[i].Name(), res[i].Regions, want)
		}
	}
}

// TestChoiceFollowsTheInstance: instances built with and without a name
// have their own indexing choices, and an engine over each compiles for its
// own; an instance spliced by an edit keeps the choice and compiles nothing.
func TestChoiceFollowsTheInstance(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	_, compiles := compile.CountPreparation(t)
	q := xsql.MustParse(changQuery)
	exec := func(eng *engine.Engine) *engine.Result {
		t.Helper()
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// over is an engine over f's sets but omit, on f's word index.
	over := func(omit string) *engine.Engine {
		sets := map[string]region.Set{}
		for _, n := range f.In.Names() {
			if n != omit {
				sets[n] = f.In.MustRegion(n)
			}
		}
		return engine.New(f.Cat, index.New(f.In.Words(), sets, nil))
	}
	base := exec(f.Eng)
	if !base.Stats.Exact || compiles.Load() != 1 {
		t.Fatalf("full index: exact=%v after %d compiles", base.Stats.Exact, compiles.Load())
	}

	// Without the leaf the index can only narrow by word containment.
	dropped := exec(over("Last_Name"))
	if dropped.Stats.PlanCached || compiles.Load() != 2 {
		t.Errorf("without Last_Name: cached=%v, %d compiles, want a recompile", dropped.Stats.PlanCached, compiles.Load())
	}
	if dropped.Stats.Exact || !dropped.Regions.Equal(base.Regions) {
		t.Errorf("without Last_Name: exact=%v regions=%v, want a filtered superset plan and %v", dropped.Stats.Exact, dropped.Regions, base.Regions)
	}

	restored := exec(over(""))
	if !restored.Stats.PlanCached || !restored.Stats.Exact || compiles.Load() != 2 {
		t.Errorf("with Last_Name again: cached=%v exact=%v, %d compiles: the first choice's plan should have been found",
			restored.Stats.PlanCached, restored.Stats.Exact, compiles.Load())
	}

	ref := f.In.MustRegion("Reference").Regions()[0]
	spliced, err := engine.DeleteRegion(f.Cat, f.In, "Reference", ref)
	if err != nil {
		t.Fatal(err)
	}
	after := exec(engine.New(f.Cat, spliced))
	if !after.Stats.PlanCached || compiles.Load() != 2 {
		t.Errorf("after a splice: cached=%v, %d compiles, want the same plan", after.Stats.PlanCached, compiles.Load())
	}
	if want := wantRegions(t, spliced, changQuery); !after.Regions.Equal(want) {
		t.Errorf("after a splice: got %v, want %v", after.Regions, want)
	}
}

// TestSetRewriterPurges: a plan compiled under one rewriter must not answer
// for the next.
func TestSetRewriterPurges(t *testing.T) {
	f := testutil.NewBibFixture(t, 20, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changQuery)
	first, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Plan.Vars[0].Rewrites) == 0 {
		t.Fatal("the default optimizer applied no rewrite; the test needs one to remove")
	}
	f.Cat.SetRewriter(func(e algebra.Expr, _ *rig.Graph) (algebra.Expr, []optimizer.Rewrite) { return e, nil })
	if f.Cat.PreparedLen() != 0 {
		t.Errorf("%d prepared texts survive SetRewriter", f.Cat.PreparedLen())
	}
	second, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PlanCached || len(second.Plan.Vars[0].Rewrites) != 0 {
		t.Errorf("after SetRewriter: cached=%v, rewrites %v", second.Stats.PlanCached, second.Plan.Vars[0].Rewrites)
	}
	if !second.Regions.Equal(first.Regions) {
		t.Errorf("the identity rewriter changed the answer: %v, want %v", second.Regions, first.Regions)
	}
}

// TestPlanCacheFaultsRecompile: an injected plancache.get or plancache.put
// fault costs a compile on every file and changes no answer; with the fault
// gone the cache works as before.
func TestPlanCacheFaultsRecompile(t *testing.T) {
	cat := bibtex.Catalog()
	docs := testutil.BibCorpusDocs(t, 4, 30)
	engs := make([]*engine.Engine, len(docs))
	for i, doc := range docs {
		in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = engine.New(cat, in)
	}
	q := xsql.MustParse(changQuery)
	// run executes q on every file and reports the total results and
	// whether any file's plan came from the cache.
	run := func() (results int, cached bool) {
		t.Helper()
		for _, eng := range engs {
			res, err := eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			results += res.Stats.Results
			cached = cached || res.Stats.PlanCached
		}
		return results, cached
	}
	want, _ := run()
	_, compiles := compile.CountPreparation(t)
	t.Cleanup(faultinject.Reset) // run fails the test with a fault still set
	for _, point := range []string{faultinject.PlanCacheGet, faultinject.PlanCachePut} {
		// A put fault keeps nothing: warm the cache, so that what is asserted
		// is that the fault forces the compiles, not that the cache was cold.
		run()
		if point == faultinject.PlanCachePut {
			cat.SetRewriter(nil) // purge: a put only happens on a miss
		}
		before := compiles.Load()
		if err := faultinject.Configure(point + "=error"); err != nil {
			t.Fatal(err)
		}
		got, cached := run()
		faultinject.Reset()
		if n := compiles.Load() - before; n != int64(len(docs)) {
			t.Errorf("%s: %d compiles over %d files, want one a file", point, n, len(docs))
		}
		if got != want || cached {
			t.Errorf("%s: %d results (cached=%v), want %d uncached", point, got, cached, want)
		}
	}
	before := compiles.Load()
	for i := 0; i < 2; i++ {
		run()
	}
	if n := compiles.Load() - before; n != 1 {
		t.Errorf("after the faults: %d compiles in two executions, want 1", n)
	}
}

// TestOverlongSourceNotRetained: a query text past the retention bound is
// answered like any other and leaves nothing in the cache, however often it
// is sent; what the cache holds is bounded by its capacity.
func TestOverlongSourceNotRetained(t *testing.T) {
	f := testutil.NewBibFixture(t, 20, grammar.IndexSpec{}, nil)
	want, err := f.Eng.Execute(xsql.MustParse(changQuery))
	if err != nil {
		t.Fatal(err)
	}
	f.Cat.SetRewriter(nil) // start from an empty cache

	// Over the bound as sent and as normalized: nothing of it is kept.
	long := changQuery + strings.Repeat(` OR r.Key = "no such key"`, compile.MaxRetainedSource/20)
	parses, compiles := compile.CountPreparation(t)
	for i := 0; i < 3; i++ {
		p, err := f.Cat.Prepare(long)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Eng.ExecutePrepared(context.Background(), p, engine.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Regions.Equal(want.Regions) || res.Stats.PlanCached {
			t.Errorf("run %d: regions %v (cached=%v), want %v uncached", i, res.Regions, res.Stats.PlanCached, want.Regions)
		}
	}
	if f.Cat.PreparedLen() != 0 || parses.Load() != 3 || compiles.Load() != 3 {
		t.Errorf("%d entries kept, %d parses, %d compiles; want 0, 3, 3", f.Cat.PreparedLen(), parses.Load(), compiles.Load())
	}

	// Over the bound as sent only (padding): kept by its normalized text, so
	// a repeat is parsed again but not compiled again.
	padded := changQuery + strings.Repeat(" ", compile.MaxRetainedSource)
	for i := 0; i < 2; i++ {
		if _, err := f.Cat.Prepare(padded); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := f.Cat.Prepare(changQuery); err != nil || p.Query.String() != changQuery {
		t.Fatalf("Prepare: %v, %v", p, err)
	}
	if f.Cat.PreparedLen() != 1 || parses.Load() != 5 {
		t.Errorf("%d texts kept, %d parses; want 1 text, the padded one parsed twice and its normalized form never", f.Cat.PreparedLen(), parses.Load())
	}

	// Capacity: distinct queries past it push the oldest out.
	for i := 0; i < compile.PlanCacheCap+10; i++ {
		if _, err := f.Cat.Prepare(fmt.Sprintf(`SELECT r FROM References r WHERE r.Key = "k%d"`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Cat.PreparedLen() != compile.PlanCacheCap {
		t.Errorf("%d entries, want the capacity %d", f.Cat.PreparedLen(), compile.PlanCacheCap)
	}
}

// entry is one reference in the bibtex schema's layout with the given words.
func entry(key, title, abstract string) string {
	e := strings.Replace(bibtex.SampleEntry, "Corl82a", key, 1)
	e = strings.Replace(e, "Solving Ordinary Differential Equations Using Taylor Series", title, 1)
	return strings.Replace(e, "A Fortran pre-processor uses automatic differentiation to write a Fortran program to solve the system", abstract, 1)
}

// TestOperandOrderIsThePlans: two files whose word figures disagree (an
// AND's word is missing from a different file each time) run the one plan
// Prepared.Plan returns for their indexing choice — the same pointer, so
// the same candidates, result-cache key and Explain — and answer as the
// oracle does. No file's figures reorder a plan's operands.
func TestOperandOrderIsThePlans(t *testing.T) {
	cat := bibtex.Catalog()
	// "beta" is missing from a, "alpha" from b.
	var a, b strings.Builder
	for i := 0; i < 12; i++ {
		a.WriteString(entry(fmt.Sprintf("A%d", i), "alpha gamma", "gamma"))
		b.WriteString(entry(fmt.Sprintf("B%d", i), "gamma", "beta gamma"))
	}
	docs := []*text.Document{text.NewDocument("a.bib", a.String()), text.NewDocument("b.bib", b.String())}
	engines := enginesOver(t, cat, docs, grammar.IndexSpec{})
	_, compiles := compile.CountPreparation(t)

	srcs := []string{
		`SELECT r FROM References r WHERE r.Title CONTAINS "alpha" AND r.Abstract CONTAINS "beta"`,
		`SELECT r FROM References r WHERE r.Title CONTAINS "alpha" OR r.Abstract CONTAINS "beta"`,
	}
	for _, src := range srcs {
		p, err := cat.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		var first *compile.Plan
		for i, eng := range engines {
			res, err := eng.ExecutePrepared(context.Background(), p, engine.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			plan, _, err := p.Plan(cat.Choice(eng.Instance()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan != plan {
				t.Errorf("%s: %s ran a copy of its plan, not the one Prepared.Plan returns", docs[i].Name(), src)
			}
			if first == nil {
				first = res.Plan
			} else if res.Plan != first || res.Plan.Vars[0].CandidatesKey != first.Vars[0].CandidatesKey || res.Explain() != first.Explain() {
				t.Errorf("%s: %s runs\n%s\nwhere %s runs\n%s", docs[i].Name(), src, res.Explain(), docs[0].Name(), first.Explain())
			}
			oracle, err := refeval.NewOracle(cat, docs[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Query(xsql.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Regions.Equal(want.Regions) {
				t.Errorf("%s: %s answers %d references, the oracle %d", docs[i].Name(), src, res.Regions.Len(), want.Regions.Len())
			}
		}
	}
	if got := compiles.Load(); got != int64(len(srcs)) {
		t.Errorf("the catalog compiled %d times for %d queries on two files of one choice, want %d", got, len(srcs), len(srcs))
	}
}
