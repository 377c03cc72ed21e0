package xsql

import (
	"testing"

	"qof/internal/db"
)

// benchReference is a bibliographic reference shaped like the bibtex
// schema's values: eleven attributes, names nested two levels under sets.
func benchReference() db.Value {
	ref := sampleRef([]string{"Corliss", "Chang"}, []string{"Griewank"})
	return ref.
		Put("Title", db.String("Solving Ordinary Differential Equations Using Taylor Series")).
		Put("Booktitle", db.String("Automatic Differentiation of Algorithms")).
		Put("Publisher", db.String("SIAM")).
		Put("Address", db.String("Philadelphia, Penn.")).
		Put("Year", db.String("1991")).
		Put("Pages", db.String("114--144")).
		Put("Keywords", db.String("point algorithm; Taylor series; radius of convergence")).
		Put("Abstract", db.String("A Fortran pre-processor uses automatic differentiation to write a Fortran object program to solve the system using Taylor series"))
}

var sinkBool bool

// BenchmarkEvalCondContains is phase 2's third stage, after the two in
// internal/grammar: deciding a compiled WHERE clause for one candidate. It
// keeps the name of the EvalCond that Filter.Eval replaced, so the series
// of numbers under that name runs on across the change.
func BenchmarkEvalCondContains(b *testing.B) {
	q := MustParse(`SELECT r FROM References r WHERE r.Abstract CONTAINS "Taylor" AND NOT r.Keywords CONTAINS "zebra"`)
	f, err := CompileFilter(q)
	if err != nil {
		b.Fatal(err)
	}
	ref := benchReference()
	b.ReportAllocs()
	b.SetBytes(int64(len(ref.String())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = f.EvalOne(ref)
	}
	if !sinkBool {
		b.Fatal("filter rejected the reference")
	}
}

// TestFilterEvalDoesNotAllocate: everything query-dependent was resolved by
// CompileFilter, and the comparisons walk the value instead of collecting
// what the path reaches, so deciding a candidate costs no allocation —
// constant, CONTAINS and STARTS comparisons alike, under path variables too.
func TestFilterEvalDoesNotAllocate(t *testing.T) {
	ref := benchReference()
	for _, where := range []string{
		`r.Abstract CONTAINS "Taylor" AND NOT r.Keywords CONTAINS "zebra"`,
		`r.Authors.Name.Last_Name = "Chang" OR r.Key STARTS "zz"`,
		`r.*X.Last_Name = "Griewank"`,
		`r.?X.Name.Last_Name = "Nobody"`,
	} {
		f, err := CompileFilter(MustParse("SELECT r FROM References r WHERE " + where))
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { sinkBool = f.EvalOne(ref) }); n != 0 {
			t.Errorf("%s: %.0f allocations per evaluation", where, n)
		}
	}
}
