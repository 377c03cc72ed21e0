package srccode_test

import (
	"testing"

	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/scan"
	"qof/internal/srccode"
	"qof/internal/testutil/nesting"
	"qof/internal/text"
	"qof/internal/xsql"
)

func build(t *testing.T, n int) (*engine.Engine, *text.Document, srccode.Stats) {
	t.Helper()
	content, st := srccode.Generate(srccode.DefaultConfig(n))
	cat := srccode.Catalog()
	doc := text.NewDocument("prog.src", content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(cat, in), doc, st
}

func TestGeneratedSourceParses(t *testing.T) {
	eng, _, st := build(t, 60)
	in := eng.Instance()
	if got := in.MustRegion(srccode.NTDecl).Len(); got != st.Decls {
		t.Fatalf("decls = %d, want %d", got, st.Decls)
	}
	if err := nesting.Check(in.Sets()); err != nil {
		t.Errorf("regions must nest: %v", err)
	}
	if err := eng.Catalog().Grammar.DeriveRIG().Satisfies(in); err != nil {
		t.Errorf("RIG violated: %v", err)
	}
	// The disjunctive Decl produces edges for both alternatives.
	rig := eng.Catalog().RIG
	if !rig.HasEdge(srccode.NTDecl, srccode.NTFuncName) || !rig.HasEdge(srccode.NTDecl, srccode.NTTypeName) {
		t.Error("disjunctive edges missing")
	}
}

func TestSourceQueries(t *testing.T) {
	eng, doc, st := build(t, 120)
	cases := []struct {
		src  string
		want int
	}{
		{`SELECT d FROM Decls d WHERE d.Stmt.Callee = "parse"`, st.FuncsCalling},
		{`SELECT d FROM Decls d WHERE d.Field.FieldType = "id"`, st.StructsWithID},
		{`SELECT d FROM Decls d WHERE d.*X.Callee = "parse"`, st.FuncsCalling},
	}
	for _, tc := range cases {
		q := xsql.MustParse(tc.src)
		res, err := eng.Execute(q)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if res.Stats.Results != tc.want {
			t.Errorf("%s: results = %d, want %d\n%s", tc.src, res.Stats.Results, tc.want, res.Plan.Explain())
		}
		base, err := scan.FullScan(eng.Catalog(), doc, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Objects) != tc.want {
			t.Errorf("%s: baseline = %d, want %d", tc.src, len(base.Objects), tc.want)
		}
	}
}

func TestCommentSearch(t *testing.T) {
	eng, _, _ := build(t, 80)
	res, err := eng.Execute(xsql.MustParse(
		`SELECT d.FuncName FROM Decls d WHERE d.Stmt.Comment CONTAINS "recursive"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results == 0 {
		t.Fatal("no recursive comments found; generator vocabulary changed?")
	}
	if !res.Stats.Exact {
		t.Errorf("comment CONTAINS should be exact:\n%s", res.Plan.Explain())
	}
}

func TestDisjunctiveValues(t *testing.T) {
	// Function attributes are absent on structs and vice versa.
	eng, _, _ := build(t, 8)
	res, err := eng.Execute(xsql.MustParse(`SELECT d.TypeName FROM Decls d`))
	if err != nil {
		t.Fatal(err)
	}
	// Only struct declarations contribute type names.
	if got := len(res.Strings); got != 2 { // 8/4 structs
		t.Fatalf("TypeName projection = %v", res.Strings)
	}
}
