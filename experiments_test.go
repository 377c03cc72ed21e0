package qof_test

// The paper's experiments (EXPERIMENTS.md, E1–E10 and the extensions X1–X2),
// each defined once: a table's rows, each with its setup, its answer check
// against the generator's ground truth or the full scan, its timed bodies
// and its count columns. BenchmarkE1 … BenchmarkX2 time every row at the
// tables' sizes, one sub-benchmark per row and per timed column; the counts
// are reported beside each timing. TestExperiments checks every row's
// answers at the smallest size.
//
// The tables time evaluation, so the engines of E1 and E4–E9 run without
// the cross-query result cache: every iteration evaluates phase 1 again.
// The plan cache stays, as it does for any repeated query. X2 serves with
// the result cache, as a server does. The tables are regenerated with
//
//	go test -run '^$' -bench '^Benchmark(E|X)[0-9]' -timeout 30m .

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"qof/internal/advisor"
	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/region"
	"qof/internal/scan"
	"qof/internal/sgml"
	"qof/internal/text"
	"qof/internal/xsql"
)

// tableRefs are the bibliography sizes of the tables: the sweep of E1, E2,
// E6, E7 and X1, the largest for E4, E5, E8 and E9, the middle one for X2.
var tableRefs = []int{1000, 5000, 20000}

// changQuery is the paper's running example (Section 2).
const changQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

// A row is one row of an experiment's table. Its key names its
// sub-benchmark; setup builds its inputs, checks its answers, and returns
// its timed columns and its count columns.
type row struct {
	key   string
	setup func(tb testing.TB) ([]timed, counts)
}

// timed is one timed column of a row: run does the measured work n times.
type timed struct {
	name string
	run  func(n int) error
}

// counts are a row's count columns, by unit.
type counts map[string]float64

var experiments = []struct {
	name string
	rows func(refs []int) []row
}{
	{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5}, {"E6", e6},
	{"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10}, {"X1", x1}, {"X2", x2},
}

// TestExperiments builds every row of every table at the tables' smallest
// bibliography, 1 000 references (the SGML shapes are the tables' own),
// which checks its answers, and runs each timed column once. Below about
// 700 references the generator makes no Chang author, and a ground truth
// of 0 checks nothing.
func TestExperiments(t *testing.T) {
	for _, e := range experiments {
		for _, r := range e.rows(tableRefs[:1]) {
			t.Run(e.name+"/"+r.key, func(t *testing.T) {
				cols, _ := r.setup(t)
				for _, c := range cols {
					if err := c.run(1); err != nil {
						t.Errorf("%s: %v", c.name, err)
					}
				}
			})
		}
	}
}

func BenchmarkE1(b *testing.B)  { benchRows(b, e1(tableRefs)) }
func BenchmarkE2(b *testing.B)  { benchRows(b, e2(tableRefs)) }
func BenchmarkE3(b *testing.B)  { benchRows(b, e3(tableRefs)) }
func BenchmarkE4(b *testing.B)  { benchRows(b, e4(tableRefs)) }
func BenchmarkE5(b *testing.B)  { benchRows(b, e5(tableRefs)) }
func BenchmarkE6(b *testing.B)  { benchRows(b, e6(tableRefs)) }
func BenchmarkE7(b *testing.B)  { benchRows(b, e7(tableRefs)) }
func BenchmarkE8(b *testing.B)  { benchRows(b, e8(tableRefs)) }
func BenchmarkE9(b *testing.B)  { benchRows(b, e9(tableRefs)) }
func BenchmarkE10(b *testing.B) { benchRows(b, e10(tableRefs)) }
func BenchmarkX1(b *testing.B)  { benchRows(b, x1(tableRefs)) }
func BenchmarkX2(b *testing.B)  { benchRows(b, x2(tableRefs)) }

// benchRows runs each row's setup once and each of its timed columns as a
// sub-benchmark of the row's, reporting the row's counts beside it.
func benchRows(b *testing.B, rows []row) {
	for _, r := range rows {
		b.Run(r.key, func(b *testing.B) {
			cols, cs := r.setup(b)
			for _, c := range cols {
				b.Run(c.name, func(b *testing.B) {
					if err := c.run(b.N); err != nil {
						b.Fatal(err)
					}
					for unit, v := range cs {
						b.ReportMetric(v, unit)
					}
				})
			}
		})
	}
}

// E1 (§1, §8): the Chang-as-author query through the index, against the
// standard implementation that parses the whole file and loads it into the
// database, and against grep, which cannot tell authors from editors. Both
// query sides end with the answers as objects.
func e1(refs []int) []row {
	return sweep("refs", refs, func(tb testing.TB, n int) ([]timed, counts) {
		f := newBibtex(tb, n, grammar.IndexSpec{}, 0)
		f.eng.DisableResultCache()
		q := xsql.MustParse(changQuery)
		res := f.execute(tb, q)
		objs, err := res.Objects()
		if err != nil {
			tb.Fatal(err)
		}
		f.check(tb, q, len(objs), f.truth.TargetAsAuthor)
		parsed := res.Stats.ParsedBytes
		for _, r := range res.Regions.Regions() {
			parsed += r.Len()
		}
		return []timed{
			{"index", f.load(q)},
			{"scan", f.fullScan(q)},
			{"grep", times(func() error { scan.Grep(f.doc, "Chang"); return nil })},
		}, counts{"answers": float64(len(objs)), "parsed-bytes": float64(parsed), "file-bytes": float64(f.doc.Len())}
	})
}

// E2 (§3.2, Theorem 3.6): Reference ⊃d Authors ⊃d Name ⊃d σ"Chang"(Last_Name)
// against its most efficient equivalent, with ⊃d as the engine evaluates it
// (the nearest-container sweep) and as the paper's layered program does.
func e2(refs []int) []row {
	original := algebra.MustParse(`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	optimized := algebra.MustParse(`Reference > Authors > contains(Last_Name, "Chang")`)
	return sweep("refs", refs, func(tb testing.TB, n int) ([]timed, counts) {
		f := newBibtex(tb, n, grammar.IndexSpec{}, 0)
		ev, lay := algebra.NewEvaluator(f.in), algebra.NewEvaluator(f.in)
		lay.UseLayeredDirect = true
		want := evalSame(tb, []*algebra.Evaluator{ev, lay, ev}, original, original, optimized)
		if want.Len() != f.truth.TargetAsAuthor {
			tb.Fatalf("%d results, ground truth %d", want.Len(), f.truth.TargetAsAuthor)
		}
		return []timed{
			{"original", evalTimes(ev, original)},
			{"layered", evalTimes(lay, original)},
			{"optimized", evalTimes(ev, optimized)},
		}, counts{"results": float64(want.Len())}
	})
}

// E3 (§3.1): Section ⊃d Section against Section ⊃ Section as SGML sections
// nest deeper (fanout 2), ⊃d both through the sweep and by the layered
// program. The table's sizes are its depths, so refs is not read.
func e3([]int) []row {
	var rows []row
	plain, direct := algebra.MustParse(`Section > Section`), algebra.MustParse(`Section >d Section`)
	for _, depth := range []int{3, 5, 7, 9} {
		rows = append(rows, row{fmt.Sprintf("depth=%d", depth), func(tb testing.TB) ([]timed, counts) {
			f := newSGML(tb, depth, 2)
			ev, lay := algebra.NewEvaluator(f.in), algebra.NewEvaluator(f.in)
			lay.UseLayeredDirect = true
			evalSame(tb, []*algebra.Evaluator{ev, lay}, direct, direct)
			return []timed{
				{"plain", evalTimes(ev, plain)},
				{"direct", evalTimes(ev, direct)},
				{"layered", evalTimes(lay, direct)},
			}, counts{"sections": float64(f.truth.Sections)}
		}})
	}
	return rows
}

// partialSpec is §6.1's partial index {Reference, Key, Last_Name}.
var partialSpec = grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}

// E4 (§6): under the partial index the Chang query's candidates are a
// superset that grows with the share of references where Chang edits.
func e4(refs []int) []row {
	var rows []row
	for _, share := range []float64{0.05, 0.25, 0.50} {
		for _, s := range []struct {
			name string
			spec grammar.IndexSpec
		}{{"full", grammar.IndexSpec{}}, {"partial", partialSpec}} {
			key := fmt.Sprintf("editors=%.0f%%,spec=%s", share*100, s.name)
			rows = append(rows, specRow(key, last(refs), share, s.spec, s.name == "full", false))
		}
	}
	return rows
}

// E5 (§6.3): an index whose contracted edges each have a unique realizing
// path answers exactly; one that does not parses and filters a superset.
func e5(refs []int) []row {
	n := last(refs)
	return []row{
		specRow("spec=full", n, 0, grammar.IndexSpec{}, true, false),
		specRow("spec=exact63", n, 0, grammar.IndexSpec{Names: []string{
			bibtex.NTReference, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTLastName}}, true, false),
		specRow("spec=superset", n, 0, partialSpec, false, false),
	}
}

// E6 (§5.3): r.*X.Last_Name is one plain inclusion; enumerating its two
// paths is a union of chains; the database traverses every object.
func e6(refs []int) []row {
	star := xsql.MustParse(`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`)
	enum := xsql.MustParse(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" OR r.Editors.Name.Last_Name = "Chang"`)
	return sweep("refs", refs, func(tb testing.TB, n int) ([]timed, counts) {
		f := newBibtex(tb, n, grammar.IndexSpec{}, 0)
		f.eng.DisableResultCache()
		answers := f.execute(tb, star).Stats.Results
		f.check(tb, star, answers, f.truth.TargetAsEither)
		f.check(tb, enum, f.execute(tb, enum).Stats.Results, f.truth.TargetAsEither)
		return []timed{
			{"star", f.query(star)},
			{"enum", f.query(enum)},
			{"dbscan", f.fullScan(star)},
		}, counts{"answers": float64(answers)}
	})
}

// E7 (§5.2): the editors-who-authored value join, the index narrowing what
// is loaded, against loading every object. Both sides load their answers.
func e7(refs []int) []row {
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`)
	return sweep("refs", refs, func(tb testing.TB, n int) ([]timed, counts) {
		f := newBibtex(tb, n, grammar.IndexSpec{}, 0)
		f.eng.DisableResultCache()
		res := f.execute(tb, q)
		objs, err := res.Objects()
		if err != nil {
			tb.Fatal(err)
		}
		f.check(tb, q, len(objs), f.truth.SelfEditedByAuth)
		return []timed{{"index", f.load(q)}, {"fullload", f.fullScan(q)}},
			counts{"candidates": float64(res.Stats.Candidates), "parsed": float64(res.Stats.Parsed + len(objs)), "answers": float64(len(objs))}
	})
}

// E8 (§7): query time against the amount of indexing, from the root alone
// to every non-terminal, through the advisor's pick for the query.
func e8(refs []int) []row {
	rec, err := advisor.Recommend(bibtex.Catalog(), []*xsql.Query{xsql.MustParse(changQuery)})
	if err != nil {
		panic(err)
	}
	n := last(refs)
	names := func(ns ...string) grammar.IndexSpec { return grammar.IndexSpec{Names: ns} }
	return []row{
		specRow("spec=root-only", n, 0, names(bibtex.NTReference), false, true),
		specRow("spec=+Last_Name", n, 0, names(bibtex.NTReference, bibtex.NTLastName), false, true),
		specRow("spec=advisor", n, 0, rec.Spec(), true, true),
		specRow("spec=+Editors,Name", n, 0, names(bibtex.NTReference, bibtex.NTLastName,
			bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTName), true, true),
		specRow("spec=full", n, 0, grammar.IndexSpec{}, true, true),
	}
}

// E9 (§7): Last_Name indexed everywhere against only inside Authors. The
// scoped index cannot certify exactness, so it filters its candidates.
func e9(refs []int) []row {
	n := last(refs)
	return []row{
		specRow("spec=global", n, 0, grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTLastName}}, false, false),
		specRow("spec=scoped", n, 0, grammar.IndexSpec{Names: []string{bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}}}, false, false),
	}
}

// E10 (§5.3): sections containing "needle" at any depth, one inclusion
// expression on the index against the database's wildcard traversal. The
// table's sizes are its SGML shapes, so refs is not read.
func e10([]int) []row {
	expr := algebra.MustParse(`Section > contains(Para, "needle")`)
	q := xsql.MustParse(`SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "needle"`)
	var rows []row
	for _, shape := range [][2]int{{5, 2}, {7, 2}, {5, 4}} {
		rows = append(rows, row{fmt.Sprintf("depth=%d,fanout=%d", shape[0], shape[1]), func(tb testing.TB) ([]timed, counts) {
			f := newSGML(tb, shape[0], shape[1])
			ev := algebra.NewEvaluator(f.in)
			got := evalSame(tb, []*algebra.Evaluator{ev}, expr).Len()
			f.check(tb, q, got, f.truth.TargetSections)
			return []timed{
				{"locate", evalTimes(ev, expr)},
				{"dbscan", f.fullScan(q)},
			}, counts{"sections": float64(f.truth.Sections), "answers": float64(got)}
		}})
	}
	return rows
}

// editedReference is X1's replacement text.
const editedReference = `@INCOLLECTION{Edited01,
AUTHOR = "Y. F. Chang",
TITLE = "A Revised Entry",
BOOKTITLE = "Updates on Files",
YEAR = "1994",
EDITOR = "T. Milo",
PUBLISHER = "ACM Press",
PAGES = "1--12",
REFERRED = "",
KEYWORDS = "updates",
ABSTRACT = "an edited reference",
}`

// X1 (an extension; the paper leaves index maintenance to the text
// system): one reference replaced by splicing the indexes, against
// rebuilding them. The splice must equal the rebuild.
func x1(refs []int) []row {
	return sweep("refs", refs, func(tb testing.TB, n int) ([]timed, counts) {
		f := newBibtex(tb, n, grammar.IndexSpec{}, 0)
		target := f.in.MustRegion(bibtex.NTReference).At(n / 2)
		splice := func() (*index.Instance, error) {
			return engine.ReplaceRegion(f.cat, f.in, bibtex.NTReference, target, editedReference)
		}
		spliced, err := splice()
		if err != nil {
			tb.Fatal(err)
		}
		edited := spliced.Document()
		rebuilt, _, err := f.cat.Grammar.BuildInstance(edited, grammar.IndexSpec{})
		if err != nil {
			tb.Fatal(err)
		}
		for _, name := range rebuilt.Names() {
			if !spliced.MustRegion(name).Equal(rebuilt.MustRegion(name)) {
				tb.Fatalf("splice diverges from rebuild on %q", name)
			}
		}
		return []timed{
			{"splice", times(func() error { _, err := splice(); return err })},
			{"rebuild", times(func() error {
				_, _, err := f.cat.Grammar.BuildInstance(edited, grammar.IndexSpec{})
				return err
			})},
		}, nil
	})
}

// x2Queries are X2's mixed client workload: an index-exact select, a
// projection, a conjunctive filter, a value join and a whole-class
// enumeration.
var x2Queries = []string{
	changQuery,
	`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Title CONTAINS "Systems" AND r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
	`SELECT r.Key FROM References r`,
}

// x2Phase2 are X2's phase-2 queries: a CONTAINS on the unindexed Abstract or
// Keywords under the partial index makes every reference with the word
// anywhere a candidate, and each is parsed.
var x2Phase2 = []string{
	`SELECT r FROM References r WHERE r.Abstract CONTAINS "term150"`,
	`SELECT r.Title FROM References r WHERE r.Keywords CONTAINS "term150"`,
	`SELECT r FROM References r WHERE r.Abstract CONTAINS "term300"`,
	`SELECT r.Title FROM References r WHERE r.Keywords CONTAINS "term300"`,
}

// X2 (an extension): mode clients runs the mixed queries from N goroutines
// on one fully indexed file; mode phase2 runs the phase-2 queries from one
// caller with N−1 helpers (pool.SetHelpers), so N goroutines parse. An
// operation is one query.
func x2(refs []int) []row {
	n := refs[len(refs)/2]
	var rows []row
	for _, mode := range []string{"clients", "phase2"} {
		for _, workers := range []int{1, 2, 4, 8} {
			rows = append(rows, row{fmt.Sprintf("mode=%s,workers=%d", mode, workers), func(tb testing.TB) ([]timed, counts) {
				srcs, spec, clients, helpers := x2Queries, grammar.IndexSpec{}, workers, -1
				if mode == "phase2" {
					srcs, spec, clients, helpers = x2Phase2, partialSpec, 1, workers-1
				}
				f := newBibtex(tb, n, spec, 0)
				qs := make([]*xsql.Query, len(srcs))
				for i, src := range srcs {
					qs[i] = xsql.MustParse(src)
					if res := f.execute(tb, qs[i]); mode == "phase2" && res.Stats.Parsed == 0 {
						tb.Fatalf("%s parsed nothing; the row would measure no phase 2", src)
					}
					if !f.execute(tb, qs[i]).Stats.PlanCached {
						tb.Fatalf("%s: a repeat compiled its plan again", src)
					}
				}
				return []timed{{"query", func(ops int) error {
					if helpers >= 0 {
						defer pool.SetHelpers(helpers)()
					}
					return serveQueries(f.eng, qs, clients, ops)
				}}}, nil
			}})
		}
	}
	return rows
}

// serveQueries runs ops queries, cycling through qs, from workers
// goroutines that take the next one from a shared counter.
func serveQueries(eng *engine.Engine, qs []*xsql.Query, workers, ops int) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < ops; i = int(next.Add(1)) - 1 {
				if _, err := eng.Execute(qs[i%len(qs)]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sweep makes one row per size, keyed "<name>=<size>".
func sweep(name string, sizes []int, setup func(tb testing.TB, n int) ([]timed, counts)) []row {
	rows := make([]row, len(sizes))
	for i, n := range sizes {
		rows[i] = row{fmt.Sprintf("%s=%d", name, n), func(tb testing.TB) ([]timed, counts) { return setup(tb, n) }}
	}
	return rows
}

// specRow is the Chang-as-author query on n references under one indexing
// choice (E4, E5, E8, E9): its answers must be the ground truth and the full
// scan's, and its exactness as Section 6.3 predicts. build adds the index
// build as a timed column.
func specRow(key string, n int, editorShare float64, spec grammar.IndexSpec, exact, build bool) row {
	return row{key, func(tb testing.TB) ([]timed, counts) {
		f := newBibtex(tb, n, spec, editorShare)
		f.eng.DisableResultCache()
		q := xsql.MustParse(changQuery)
		res := f.execute(tb, q)
		f.check(tb, q, res.Stats.Results, f.truth.TargetAsAuthor)
		if res.Stats.Exact != exact {
			tb.Fatalf("exact = %v, want %v", res.Stats.Exact, exact)
		}
		cols := []timed{{"query", f.query(q)}}
		if build {
			cols = append(cols, timed{"build", times(func() error {
				in, _, err := f.cat.Grammar.BuildInstance(f.doc, spec)
				if err == nil {
					engine.New(f.cat, in)
				}
				return err
			})})
		}
		exactness := 0.0
		if exact {
			exactness = 1
		}
		return cols, counts{"names": float64(len(f.in.Names())), "regions": float64(f.in.RegionCount()),
			"index-KB": float64(f.in.SizeBytes() / 1024), "exact": exactness,
			"candidates": float64(res.Stats.Candidates), "parsed": float64(res.Stats.Parsed),
			"parsed-bytes": float64(res.Stats.ParsedBytes), "answers": float64(res.Stats.Results)}
	}}
}

func last(refs []int) int { return refs[len(refs)-1] }

// fixture is a generated document indexed under one spec, with an engine
// over it, and the generator's ground truth.
type fixture[T any] struct {
	cat   *compile.Catalog
	doc   *text.Document
	in    *index.Instance
	eng   *engine.Engine
	truth T
}

// newBibtex generates n references (seed 1994) with Chang an editor in
// editorShare of them (0 keeps the generator's 5%) and indexes them under
// spec.
func newBibtex(tb testing.TB, n int, spec grammar.IndexSpec, editorShare float64) *fixture[bibtex.Stats] {
	tb.Helper()
	cfg := bibtex.DefaultConfig(n)
	if editorShare > 0 {
		cfg.TargetEditorShare = editorShare
	}
	content, truth := bibtex.Generate(cfg)
	return newFixture(tb, bibtex.Catalog(), fmt.Sprintf("bibtex-%d.bib", n), content, spec, truth)
}

// newSGML generates a fully indexed SGML document of nested sections.
func newSGML(tb testing.TB, depth, fanout int) *fixture[sgml.Stats] {
	tb.Helper()
	content, truth := sgml.Generate(sgml.DefaultConfig(depth, fanout))
	return newFixture(tb, sgml.Catalog(), fmt.Sprintf("doc-d%d-f%d.sgml", depth, fanout), content, grammar.IndexSpec{}, truth)
}

func newFixture[T any](tb testing.TB, cat *compile.Catalog, name, content string, spec grammar.IndexSpec, truth T) *fixture[T] {
	tb.Helper()
	doc := text.NewDocument(name, content)
	in, _, err := cat.Grammar.BuildInstance(doc, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture[T]{cat: cat, doc: doc, in: in, eng: engine.New(cat, in), truth: truth}
}

func (f *fixture[T]) execute(tb testing.TB, q *xsql.Query) *engine.Result {
	tb.Helper()
	res, err := f.eng.Execute(q)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// check fails tb unless got, a count of q's answers, is the ground truth
// and the number of objects the full scan answers q with. A ground truth
// of 0 would check nothing, so it fails too.
func (f *fixture[T]) check(tb testing.TB, q *xsql.Query, got, truth int) {
	tb.Helper()
	res, err := scan.FullScan(f.cat, f.doc, q)
	if err != nil {
		tb.Fatal(err)
	}
	if truth == 0 || got != truth || len(res.Objects) != truth {
		tb.Fatalf("%s: %d answers, full scan %d, ground truth %d", q, got, len(res.Objects), truth)
	}
}

// query times q on the fixture's engine.
func (f *fixture[T]) query(q *xsql.Query) func(int) error {
	return times(func() error { _, err := f.eng.Execute(q); return err })
}

// load times q on the fixture's engine with its answers built as objects,
// as the full-scan baseline builds them.
func (f *fixture[T]) load(q *xsql.Query) func(int) error {
	return times(func() error {
		res, err := f.eng.Execute(q)
		if err == nil {
			_, err = res.Objects()
		}
		return err
	})
}

// fullScan times the parse-everything baseline on q.
func (f *fixture[T]) fullScan(q *xsql.Query) func(int) error {
	return times(func() error { _, err := scan.FullScan(f.cat, f.doc, q); return err })
}

// evalSame evaluates exprs[i] on evs[i] and fails tb unless every result is
// the same set, which it returns.
func evalSame(tb testing.TB, evs []*algebra.Evaluator, exprs ...algebra.Expr) (want region.Set) {
	tb.Helper()
	for i, e := range exprs {
		got, err := evs[i].Eval(e)
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !got.Equal(want) {
			tb.Fatalf("%s: %d regions, %s: %d", exprs[0], want.Len(), e, got.Len())
		}
	}
	return want
}

// evalTimes times e on ev.
func evalTimes(ev *algebra.Evaluator, e algebra.Expr) func(int) error {
	return times(func() error { _, err := ev.Eval(e); return err })
}

// times returns a body that runs fn n times, stopping at its first error.
func times(fn func() error) func(int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}
