package engine_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/db"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/scan"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// objects builds the selected objects of a whole-object result on demand.
func objects(t *testing.T, res *engine.Result) []db.Value {
	t.Helper()
	objs, err := res.Objects()
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

const changAuthorQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

func TestPaperQueryFullIndexing(t *testing.T) {
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{}, nil)
	res, err := f.Eng.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != f.St.TargetAsAuthor {
		t.Fatalf("results = %d, ground truth %d", res.Stats.Results, f.St.TargetAsAuthor)
	}
	if !res.Stats.Exact {
		t.Error("full indexing should be exact")
	}
	// An exact whole-object select answers with spans: nothing is parsed.
	if res.Stats.Parsed != 0 || res.Stats.ParsedBytes != 0 {
		t.Errorf("parsed %d regions, %d bytes for an exact whole-object select", res.Stats.Parsed, res.Stats.ParsedBytes)
	}
	if res.Stats.FullScan {
		t.Error("full scan flagged")
	}
}

func TestPartialIndexingSuperset(t *testing.T) {
	// Section 6.1: {Reference, Key, Last_Name} cannot distinguish authors
	// from editors; candidates are the Chang-anywhere references, then
	// parsing filters.
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{
		Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName},
	}, nil)
	res, err := f.Eng.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != f.St.TargetAsAuthor {
		t.Fatalf("results = %d, ground truth %d", res.Stats.Results, f.St.TargetAsAuthor)
	}
	if res.Stats.Exact {
		t.Error("partial plan must not be exact")
	}
	if res.Stats.Candidates != f.St.TargetAsEither {
		t.Errorf("candidates = %d, want %d (Chang as author or editor)",
			res.Stats.Candidates, f.St.TargetAsEither)
	}
	if res.Stats.Parsed != res.Stats.Candidates {
		t.Errorf("parsed %d != candidates %d", res.Stats.Parsed, res.Stats.Candidates)
	}
	// Far less than the whole file was parsed.
	if res.Stats.ParsedBytes >= f.Doc.Len() {
		t.Error("parsed the whole file")
	}
}

func TestPartialIndexingExactPerSection63(t *testing.T) {
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{
		Names: []string{bibtex.NTReference, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTLastName},
	}, nil)
	res, err := f.Eng.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Exact {
		t.Fatal("Section 6.3 conditions hold; plan must be exact")
	}
	if res.Stats.Results != f.St.TargetAsAuthor {
		t.Fatalf("results = %d, want %d", res.Stats.Results, f.St.TargetAsAuthor)
	}
}

// TestFullScanFallback also pins the full scan's statistics, one rule for a
// single variable and for each variable of a join: the scan counts the whole
// document in ParsedBytes and every region it found in Parsed, and phase 2
// counts each candidate it parses on top.
func TestFullScanFallback(t *testing.T) {
	f := testutil.NewBibFixture(t, 30, grammar.IndexSpec{Names: []string{bibtex.NTKey}}, nil)
	refs := testutil.NewBibFixture(t, 30, grammar.IndexSpec{}, nil).In.MustRegion(bibtex.NTReference) // the same document, fully indexed
	refBytes := 0
	for _, r := range refs.Regions() {
		refBytes += r.Len()
	}
	for _, c := range []struct {
		src     string
		vars    int
		results int
	}{
		{changAuthorQuery, 1, f.St.TargetAsAuthor},
		{`SELECT r FROM References r, References s WHERE r.Year = s.Year`, 2, refs.Len()},
	} {
		res, err := f.Eng.Execute(xsql.MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.FullScan {
			t.Errorf("%s: expected full-scan fallback", c.src)
		}
		if res.Stats.Results != c.results {
			t.Fatalf("%s: results = %d, want %d", c.src, res.Stats.Results, c.results)
		}
		st, n := res.Stats, c.vars
		if st.Candidates != n*refs.Len() || st.Parsed != 2*n*refs.Len() || st.ParsedBytes != n*(f.Doc.Len()+refBytes) {
			t.Errorf("%s: candidates %d, parsed %d regions and %d bytes; want %d, %d and %d",
				c.src, st.Candidates, st.Parsed, st.ParsedBytes, n*refs.Len(), 2*n*refs.Len(), n*(f.Doc.Len()+refBytes))
		}
	}
}

func TestIndexOnlyProjection(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	const q = `SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`
	res, err := f.Eng.Execute(xsql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.IndexOnly {
		t.Fatalf("expected index-only execution: %+v\n%s", res.Stats, res.Plan.Explain())
	}
	if res.Stats.Parsed != 0 || res.Stats.ParsedBytes != 0 {
		t.Errorf("index-only run parsed %d regions", res.Stats.Parsed)
	}
	// Cross-check against the full-scan baseline.
	base, err := scan.FullScan(f.Cat, f.Doc, xsql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.SortedUnique(res.Strings), db.SortedUnique(base.Strings)) {
		t.Errorf("projection mismatch: engine %v, baseline %v", res.Strings, base.Strings)
	}
}

// TestEngineMatchesFullScan is the central integration property: for every
// query and indexing choice, the engine's answers equal the full-scan
// baseline's.
func TestEngineMatchesFullScan(t *testing.T) {
	queries := []string{
		changAuthorQuery,
		`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Key = "Key000003"`,
		`SELECT r FROM References r WHERE r.Year = "1982"`,
		`SELECT r FROM References r WHERE r.Keywords.Keyword = "taylor series"`,
		`SELECT r FROM References r WHERE r.Abstract CONTAINS "differentiation"`,
		`SELECT r FROM References r WHERE r CONTAINS "Chang"`,
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name STARTS "Cor"`,
		`SELECT r FROM References r WHERE r.Title STARTS "On the"`,
		`SELECT r FROM References r WHERE r.Title CONTAINS "Systems" AND r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.?X.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" AND r.Editors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" OR r.Editors.Name.Last_Name = "Corliss"`,
		`SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" AND NOT r.Editors.Name.Last_Name = "Corliss"`,
		`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
		`SELECT r FROM References r WHERE r.Title.Last_Name = "Chang"`, // trivial
		`SELECT r FROM References r`,
		`SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
		`SELECT r.*X.Last_Name FROM References r WHERE r.Year = "1975"`,
	}
	specs := map[string]grammar.IndexSpec{
		"full":    {},
		"partial": {Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}},
		"exact63": {Names: []string{bibtex.NTReference, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTLastName}},
		"minimal": {Names: []string{bibtex.NTReference}},
		"scoped": {
			Names:  []string{bibtex.NTReference, bibtex.NTAuthors},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
		},
	}
	for specName, spec := range specs {
		f := testutil.NewBibFixture(t, 40, spec, nil)
		for _, src := range queries {
			q := xsql.MustParse(src)
			res, err := f.Eng.Execute(q)
			if err != nil {
				t.Errorf("[%s] %s: engine error: %v", specName, src, err)
				continue
			}
			base, err := scan.FullScan(f.Cat, f.Doc, q)
			if err != nil {
				t.Errorf("[%s] %s: baseline error: %v", specName, src, err)
				continue
			}
			if res.Projected {
				got := db.SortedUnique(append([]string(nil), res.Strings...))
				want := db.SortedUnique(append([]string(nil), base.Strings...))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("[%s] %s:\n engine   %v\n baseline %v\n%s",
						specName, src, got, want, res.Plan.Explain())
				}
			} else if objs := objects(t, res); len(objs) != len(base.Objects) {
				t.Errorf("[%s] %s: engine %d objects, baseline %d\n%s",
					specName, src, len(objs), len(base.Objects), res.Plan.Explain())
			} else {
				for i := range objs {
					if !db.Equal(objs[i], base.Objects[i]) {
						t.Errorf("[%s] %s: object %d differs", specName, src, i)
						break
					}
				}
			}
		}
	}
}

// TestEngineMatchesFullScanRandomSpecs stresses the compiler's
// exactness/superset classification: random index subsets must never change
// query answers, only how much work phase 2 does.
func TestEngineMatchesFullScanRandomSpecs(t *testing.T) {
	all := bibtex.Grammar().FullIndexSpec().Names
	queries := []string{
		changAuthorQuery,
		`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = "Chang" OR r.Year = "1982"`,
		`SELECT r.Key FROM References r WHERE r.*X.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Abstract CONTAINS "taylor"`,
		`SELECT r FROM References r WHERE NOT r.Keywords.Keyword CONTAINS "algorithm"`,
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		// Random subset of names; always give Reference a 50% chance so
		// both index-backed and full-scan paths are exercised.
		var names []string
		for _, n := range all {
			if rng.Intn(3) > 0 {
				names = append(names, n)
			}
		}
		spec := grammar.IndexSpec{Names: names}
		f := testutil.NewBibFixture(t, 25, spec, nil)
		for _, src := range queries {
			q := xsql.MustParse(src)
			res, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatalf("trial %d %v: %s: %v", trial, names, src, err)
			}
			base, err := scan.FullScan(f.Cat, f.Doc, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Projected {
				got := db.SortedUnique(append([]string(nil), res.Strings...))
				want := db.SortedUnique(append([]string(nil), base.Strings...))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d (%v): %s:\n engine %v\n base   %v\n%s",
						trial, names, src, got, want, res.Plan.Explain())
				}
			} else if res.Regions.Len() != len(base.Objects) {
				t.Errorf("trial %d (%v): %s: %d vs %d\n%s",
					trial, names, src, res.Regions.Len(), len(base.Objects), res.Plan.Explain())
			}
		}
	}
}

func TestScopedIndexingAnswersScopedQuery(t *testing.T) {
	// Index Last_Name only inside Authors (Section 7): the author query
	// still gets index support, with Last_Name candidates already
	// restricted to author names.
	f := testutil.NewBibFixture(t, 60, grammar.IndexSpec{
		Names:  []string{bibtex.NTReference},
		Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
	}, nil)
	res, err := f.Eng.Execute(xsql.MustParse(changAuthorQuery))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FullScan {
		t.Fatal("scoped index should support the query")
	}
	if res.Stats.Results != f.St.TargetAsAuthor {
		t.Fatalf("results = %d, want %d", res.Stats.Results, f.St.TargetAsAuthor)
	}
	// Candidate narrowing is tighter than the unscoped partial index:
	// editor-only Changs are not even candidates.
	if res.Stats.Candidates != f.St.TargetAsAuthor {
		t.Errorf("candidates = %d, want %d (scoped index excludes editor names)",
			res.Stats.Candidates, f.St.TargetAsAuthor)
	}
}

func TestSelfJoinQuery(t *testing.T) {
	f := testutil.NewBibFixture(t, 50, grammar.IndexSpec{}, nil)
	res, err := f.Eng.Execute(xsql.MustParse(
		`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != f.St.SelfEditedByAuth {
		t.Fatalf("results = %d, ground truth %d", res.Stats.Results, f.St.SelfEditedByAuth)
	}
}

// TestPaperFlagshipQuery approximates the paper's Section 2 showcase —
// "editors who never wrote a paper with any of the keywords occurring in a
// book that they edited" — via its positive core: pairs of references where
// an editor of r authored s and r, s share a keyword. The engine's
// nested-loop evaluation must agree with the full-scan baseline.
func TestPaperFlagshipQuery(t *testing.T) {
	f := testutil.NewBibFixture(t, 15, grammar.IndexSpec{}, func(c *bibtex.Config) {
		c.TargetAuthorShare = 0.4
		c.TargetEditorShare = 0.4
		c.MaxKeywords = 2
	})
	q := xsql.MustParse(`SELECT r FROM References r, References s WHERE ` +
		`r.Editors.Name.Last_Name = s.Authors.Name.Last_Name AND ` +
		`r.Keywords.Keyword = s.Keywords.Keyword`)
	res, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := scan.FullScan(f.Cat, f.Doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions.Len() != len(base.Objects) {
		t.Fatalf("engine %d, baseline %d", res.Regions.Len(), len(base.Objects))
	}
	// The "never" form: books whose editors all avoid that pattern.
	qNeg := xsql.MustParse(`SELECT r FROM References r, References s WHERE ` +
		`NOT (r.Editors.Name.Last_Name = s.Authors.Name.Last_Name AND ` +
		`r.Keywords.Keyword = s.Keywords.Keyword) AND r.Key = r.Key`)
	resNeg, err := f.Eng.Execute(qNeg)
	if err != nil {
		t.Fatal(err)
	}
	baseNeg, err := scan.FullScan(f.Cat, f.Doc, qNeg)
	if err != nil {
		t.Fatal(err)
	}
	if resNeg.Regions.Len() != len(baseNeg.Objects) {
		t.Fatalf("negated: engine %d, baseline %d", resNeg.Regions.Len(), len(baseNeg.Objects))
	}
}

// TestMultiVarJoin: a join answers what the full-scan baseline does,
// whichever variable it selects, with its drains under the default helper
// budget (GOMAXPROCS−1), and projects in document order.
func TestMultiVarJoin(t *testing.T) {
	f := testutil.NewBibFixture(t, 12, grammar.IndexSpec{}, nil)
	for _, src := range []string{
		// References whose key is referred to by some other reference.
		`SELECT r FROM References r, References s WHERE s.Referred.RefKey = r.Key`,
		// The references referring to them: the select variable comes second.
		`SELECT s.Key FROM References r, References s WHERE s.Referred.RefKey = r.Key`,
	} {
		q := xsql.MustParse(src)
		res, err := f.Eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		base, err := scan.FullScan(f.Cat, f.Doc, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Results == 0 || res.Stats.Results != len(base.Objects)+len(base.Strings) {
			t.Fatalf("%s: engine %d, baseline %d", src, res.Stats.Results, len(base.Objects)+len(base.Strings))
		}
		// Keys are numbered in document order.
		if !sameMultiset(res.Strings, base.Strings) || !slices.IsSorted(res.Strings) {
			t.Errorf("%s: engine %v, baseline %v", src, res.Strings, base.Strings)
		}
	}
}

func TestTrivialQueryShortCircuits(t *testing.T) {
	f := testutil.NewBibFixture(t, 20, grammar.IndexSpec{}, nil)
	res, err := f.Eng.Execute(xsql.MustParse(
		`SELECT r FROM References r WHERE r.Title.Last_Name = "Chang"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != 0 || res.Stats.Parsed != 0 || res.Stats.Candidates != 0 {
		t.Fatalf("trivial query did work: %+v", res.Stats)
	}
	if !res.Plan.Trivial {
		t.Error("plan not flagged trivial")
	}
}

func TestGrepBaseline(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	g := scan.Grep(f.Doc, "Chang")
	if g.BytesScanned != f.Doc.Len() {
		t.Error("grep must scan the whole file")
	}
	// Grep counts occurrences (authors + editors), which is at least the
	// number of matching references and cannot equal the author-only
	// ground truth in this corpus.
	if g.Occurrences < f.St.TargetAsEither {
		t.Errorf("occurrences = %d < %d", g.Occurrences, f.St.TargetAsEither)
	}
	if got := scan.Grep(f.Doc, ""); got.Occurrences != 0 {
		t.Error("empty word")
	}
}

func TestEngineAccessors(t *testing.T) {
	f := testutil.NewBibFixture(t, 5, grammar.IndexSpec{}, nil)
	if f.Eng.Instance() != f.In || f.Eng.Catalog() != f.Cat {
		t.Error("accessors")
	}
}

func TestStartsQueries(t *testing.T) {
	f := testutil.NewBibFixture(t, 40, grammar.IndexSpec{}, nil)
	// Last_Name is faithful: STARTS on it is index-exact.
	res, err := f.Eng.Execute(xsql.MustParse(
		`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name STARTS "Chan"`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Exact {
		t.Errorf("STARTS on faithful leaf should be exact:\n%s", res.Plan.Explain())
	}
	if res.Stats.Results != f.St.TargetAsAuthor {
		t.Errorf("results = %d, want %d (only Chang starts with Chan here)",
			res.Stats.Results, f.St.TargetAsAuthor)
	}
	// Cross-check against the baseline, also for an unfaithful leaf.
	for _, src := range []string{
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name STARTS "Cha"`,
		`SELECT r FROM References r WHERE r.Title STARTS "On the"`,
		`SELECT r FROM References r WHERE r.Abstract STARTS "term"`,
	} {
		q := xsql.MustParse(src)
		res, err := f.Eng.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		base, err := scan.FullScan(f.Cat, f.Doc, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Regions.Len() != len(base.Objects) {
			t.Errorf("%s: engine %d vs baseline %d\n%s",
				src, res.Regions.Len(), len(base.Objects), res.Plan.Explain())
		}
	}
}

func TestMultiVarSelectUnconstrained(t *testing.T) {
	// The selected variable has no own conditions: every r pairs with the
	// matching s objects; r qualifies iff some s exists.
	f := testutil.NewBibFixture(t, 10, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(`SELECT r FROM References r, References s WHERE s.Authors.Name.Last_Name = "Chang"`)
	res, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := scan.FullScan(f.Cat, f.Doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions.Len() != len(base.Objects) {
		t.Fatalf("engine %d vs baseline %d", res.Regions.Len(), len(base.Objects))
	}
	// Some Chang-author exists in this corpus, so every r qualifies.
	want := 0
	if f.St.TargetAsAuthor > 0 {
		want = 10
	}
	if res.Regions.Len() != want {
		t.Fatalf("results = %d, want %d", res.Regions.Len(), want)
	}
}
