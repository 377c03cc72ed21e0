package xsql_test

import (
	"maps"
	"runtime"
	"strings"
	"testing"

	"qof/internal/db"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/qgen"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// TestStarRunFilters: a WHERE clause navigates a run of *X and ?X segments
// as its ?Xs followed by one *X. Over every qgen domain's objects, every
// path of at most six segments drawn from *X, ?X and two of the domain's
// attributes reaches, through the compiled filter, the strings its raw
// steps reach, and the filter decides a comparison with one of them as the
// raw steps do. A 32 000-star condition answers as the one-star condition
// does, and runs in a few megabytes: a star consumes no step, so the
// navigation's memo used to hold values times stars.
func TestStarRunFilters(t *testing.T) {
	attrs := map[string][2]string{
		"bibtex": {"Name", "Last_Name"},
		"sgml":   {"Section", "Title"},
		"logs":   {"Proc", "Pid"},
	}
	for _, d := range qgen.Domains(1994) {
		tree, err := d.Cat.Grammar.Parse(d.Doc)
		if err != nil {
			t.Fatal(err)
		}
		nt, _ := d.Cat.ClassNT(d.Classes[0])
		var vals []db.Value
		for _, n := range tree.Find(nt) {
			vals = append(vals, grammar.BuildValue(n, d.Doc.Content()))
		}
		alphabet := []xsql.Seg{{Star: true}, {Any: true}, {Attr: attrs[d.Name][0]}, {Attr: attrs[d.Name][1]}}
		paths := [][]xsql.Seg{nil}
		for i := 0; i < len(paths); i++ {
			if len(paths[i]) == 6 {
				continue
			}
			for _, s := range alphabet {
				paths = append(paths, append(append([]xsql.Seg(nil), paths[i]...), s))
			}
		}
		for _, segs := range paths[1:] {
			p := xsql.Path{Var: "o", Segs: segs}
			f := compileCmp(t, d.Classes[0], p, "")
			for _, v := range vals {
				raw, compiled := reached(v, p.Steps()), reached(v, f.CmpSteps())
				if !maps.Equal(raw, compiled) {
					t.Fatalf("%s %s: the compiled filter reaches %d strings, the raw steps %d", d.Name, p, len(compiled), len(raw))
				}
				for s := range raw {
					if !compileCmp(t, d.Classes[0], p, s).EvalOne(v) {
						t.Fatalf("%s %s = %q: the filter says no, the raw steps reach it", d.Name, p, s)
					}
					break
				}
			}
		}
	}

	cat, in := testutil.NewBibInstance(t, 5, grammar.IndexSpec{})
	eng := engine.New(cat, in)
	one := xsql.MustParse(`SELECT r FROM References r WHERE r.*X.Last_Name = "nobody" OR r.*X.?Y = r.Key`)
	many := xsql.MustParse(`SELECT r FROM References r WHERE r` + strings.Repeat(".*X", 32000) + `.Last_Name = "nobody" OR r` +
		strings.Repeat(".*X", 32000) + `.?Y = r.Key`)
	want, err := eng.Execute(one)
	if err != nil {
		t.Fatal(err)
	}
	if want.Regions.Len() == 0 {
		t.Fatal("the one-star query answers nothing: the comparison is vacuous")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := eng.Execute(many)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Regions.Equal(want.Regions) {
		t.Errorf("with 32 000 stars it answers %d references, with one %d", got.Regions.Len(), want.Regions.Len())
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<20 {
		t.Errorf("the 32 000-star query allocated %d KB, ceiling 4 MB", b>>10)
	}
}

// compileCmp compiles `o.<p> = w` over the class.
func compileCmp(t *testing.T, class string, p xsql.Path, w string) *xsql.Filter {
	t.Helper()
	f, err := xsql.CompileFilter(&xsql.Query{
		Select: xsql.Path{Var: "o"},
		From:   []xsql.FromClause{{Class: class, Var: "o"}},
		Where:  xsql.CmpConst{Path: p, Word: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// reached is the set of strings the steps reach from v.
func reached(v db.Value, steps []db.Step) map[string]bool {
	out := map[string]bool{}
	db.AnyString(v, steps, func(s string) bool {
		out[s] = true
		return false
	})
	return out
}
