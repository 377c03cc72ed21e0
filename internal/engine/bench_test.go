package engine_test

import (
	"testing"

	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// BenchmarkColdLimit times a LIMIT query's first miss at 20k references:
// the result cache and its doorkeeper are emptied before every iteration, so
// each run streams phase 1 and stops it at the limit. candidates/op is the
// number to read beside ns/op: a stream pulls about as many candidates as the
// limit keeps, where the set evaluator would build all of them. The plan
// cache stays warm, as it is for any repeated query text.
func BenchmarkColdLimit(b *testing.B) {
	f := testutil.NewBibFixture(b, 20000, grammar.IndexSpec{}, nil)
	for _, bc := range []struct{ name, q string }{
		{"KeyStarts", `SELECT r FROM References r WHERE r.Key STARTS "Key" LIMIT 10`},
		{"TitleContains", `SELECT r.Title FROM References r WHERE r.Abstract CONTAINS "system" LIMIT 10`},
		{"LastName", `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" LIMIT 1`},
		{"Year", `SELECT r FROM References r WHERE r.Year = "1990" LIMIT 5`},
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
