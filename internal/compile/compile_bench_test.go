package compile_test

import (
	"testing"

	"qof/internal/compile"
	"qof/internal/grammar"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// compileSink keeps the compiler from discarding the benchmarked call.
var compileSink *compile.Plan

// BenchmarkCompileCold times the full, uncached compile (Compile) of
// each query shape the repository benchmark (bench/workload.go) sends, under
// the index it sends it to. It is the cost a plan-cache miss pays, once per
// indexing choice; run it with -benchmem.
func BenchmarkCompileCold(b *testing.B) {
	partial := grammar.IndexSpec{Names: []string{"Reference", "Key", "Last_Name"}}
	for _, c := range []struct {
		name string
		spec grammar.IndexSpec
		src  string
	}{
		{"projection", grammar.IndexSpec{}, `SELECT r.Key FROM References r WHERE r.Abstract CONTAINS "system"`},
		{"and", grammar.IndexSpec{}, `SELECT r.Key FROM References r WHERE r.Keywords CONTAINS "term018" AND r.Abstract CONTAINS "system"`},
		{"star", grammar.IndexSpec{}, `SELECT r.Key FROM References r WHERE r.*X.Last_Name = "Chang"`},
		{"not", grammar.IndexSpec{}, `SELECT r.Key FROM References r WHERE NOT r.Abstract CONTAINS "system"`},
		{"limit", grammar.IndexSpec{}, `SELECT r FROM References r WHERE r.Editors.Name.Last_Name = "Chang" LIMIT 10`},
		{"partial", partial, `SELECT r.Title FROM References r WHERE r.Keywords CONTAINS "term018"`},
	} {
		b.Run(c.name, func(b *testing.B) {
			cat, in := testutil.NewBibInstance(b, 50, c.spec)
			q := xsql.MustParse(c.src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := cat.Compile(q, in)
				if err != nil {
					b.Fatal(err)
				}
				compileSink = plan
			}
		})
	}
}
