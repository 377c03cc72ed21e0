package engine_test

import (
	"testing"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// BenchmarkColdLimit times a LIMIT query's first miss at 20k references:
// the result cache and its doorkeeper are emptied before every iteration, so
// each run streams phase 1 and stops it at the limit. candidates/op is the
// number to read beside ns/op: a stream pulls about as many candidates as the
// limit keeps, where the set evaluator would build all of them. The plan
// cache stays warm, as it is for any repeated query text. The first four
// plans are single chains the stream runs lazily; NotContains and
// OrContains set-evaluate their − and ∪ node whole, and their ns/op is
// that cost.
func BenchmarkColdLimit(b *testing.B) {
	f := testutil.NewBibFixture(b, 20000, grammar.IndexSpec{}, nil)
	for _, bc := range []struct{ name, q string }{
		{"KeyStarts", `SELECT r FROM References r WHERE r.Key STARTS "Key" LIMIT 10`},
		{"TitleContains", `SELECT r.Title FROM References r WHERE r.Abstract CONTAINS "system" LIMIT 10`},
		{"LastName", `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" LIMIT 1`},
		{"Year", `SELECT r FROM References r WHERE r.Year = "1990" LIMIT 5`},
		{"NotContains", `SELECT r FROM References r WHERE NOT r.Abstract CONTAINS "system" LIMIT 10`},
		{"OrContains", `SELECT r FROM References r WHERE r.Abstract CONTAINS "system" OR r.Keywords CONTAINS "numerical" LIMIT 10`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			q := xsql.MustParse(bc.q)
			if _, err := f.Eng.Execute(q); err != nil { // warm the plan cache
				b.Fatal(err)
			}
			candidates := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.ForgetResults(f.Eng)
				res, err := f.Eng.Execute(q)
				if err != nil {
					b.Fatal(err)
				}
				candidates += res.Stats.Candidates
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
		})
	}
}

// BenchmarkReplaceRegion times one edit at 20k references: a reference in
// the middle of the file replaced, under the full index, the paper's
// partial one and the advisor's recommendation for the Chang query with
// its selective option. The widened cases are reported apart: the edited
// Name may sit in an Editors the instance does not index, so the edit
// re-extracts its enclosing Reference (reference) or, with no indexed name
// to widen to, the whole document (document).
func BenchmarkReplaceRegion(b *testing.B) {
	middle := func(s region.Set) region.Region { return s.At(s.Len() / 2) }
	for _, bc := range []struct {
		name    string
		spec    grammar.IndexSpec
		nt      string
		pick    func(*index.Instance) region.Region
		newText string
	}{
		{"full", grammar.IndexSpec{}, bibtex.NTReference,
			func(in *index.Instance) region.Region { return middle(in.MustRegion(bibtex.NTReference)) }, editedReference},
		{"partial", grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}, bibtex.NTReference,
			func(in *index.Instance) region.Region { return middle(in.MustRegion(bibtex.NTReference)) }, editedReference},
		{"advisor-scoped", grammar.IndexSpec{
			Names:  []string{bibtex.NTAuthors, bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTName}},
		}, bibtex.NTReference,
			func(in *index.Instance) region.Region { return middle(in.MustRegion(bibtex.NTReference)) }, editedReference},
		{"widened-reference", grammar.IndexSpec{
			Names:  []string{bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTName, Within: bibtex.NTEditors}},
		}, bibtex.NTName,
			func(in *index.Instance) region.Region { return middle(in.MustRegion(bibtex.NTName)) }, "Q. Zed"},
		{"widened-document", grammar.IndexSpec{
			Names:  []string{bibtex.NTName},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTEditors}},
		}, bibtex.NTName,
			func(in *index.Instance) region.Region {
				// The Name around an editor's Last_Name.
				last := middle(in.MustRegion(bibtex.NTLastName))
				return in.MustRegion(bibtex.NTName).Filter(func(r region.Region) bool { return r.Includes(last) }).At(0)
			}, "Q. Zed"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := testutil.NewBibFixture(b, 20000, bc.spec, nil)
			target := bc.pick(f.In)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.ReplaceRegion(f.Cat, f.In, bc.nt, target, bc.newText); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
