package logs_test

import (
	"testing"

	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/logs"
	"qof/internal/scan"
	"qof/internal/testutil/nesting"
	"qof/internal/text"
	"qof/internal/xsql"
)

func TestGeneratedLogParses(t *testing.T) {
	content, st := logs.Generate(logs.DefaultConfig(80))
	g := logs.Grammar()
	doc := text.NewDocument("app.log", content)
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := len(tree.Find(logs.NTEntry)); got != st.NumEntries {
		t.Fatalf("entries = %d, want %d", got, st.NumEntries)
	}
	in, _, err := g.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nesting.Check(in.Sets()); err != nil {
		t.Errorf("log regions must nest: %v", err)
	}
	if err := g.DeriveRIG().Satisfies(in); err != nil {
		t.Errorf("RIG violated: %v", err)
	}
}

func TestLogQueries(t *testing.T) {
	content, st := logs.Generate(logs.DefaultConfig(120))
	cat := logs.Catalog()
	doc := text.NewDocument("app.log", content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cat, in)

	cases := []struct {
		src  string
		want int
	}{
		{`SELECT e FROM Entries e WHERE e.Level = "ERROR"`, st.Errors},
		{`SELECT e FROM Entries e WHERE e.Proc.Program = "nginx"`, st.TargetEntries},
		{`SELECT e FROM Entries e WHERE e.Level = "ERROR" AND e.Proc.Program = "nginx"`, st.TargetErrors},
		{`SELECT e FROM Entries e WHERE e.*X.Program = "nginx"`, st.TargetEntries},
	}
	for _, tc := range cases {
		res, err := eng.Execute(xsql.MustParse(tc.src))
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if res.Stats.Results != tc.want {
			t.Errorf("%s: results = %d, want %d\n%s", tc.src, res.Stats.Results, tc.want, res.Plan.Explain())
		}
		if !res.Stats.Exact {
			t.Errorf("%s: full indexing should be exact", tc.src)
		}
		// Cross-check with the baseline.
		base, err := scan.FullScan(cat, doc, xsql.MustParse(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Objects) != tc.want {
			t.Errorf("%s: baseline = %d, want %d", tc.src, len(base.Objects), tc.want)
		}
	}
}

func TestLogPartialIndexing(t *testing.T) {
	content, st := logs.Generate(logs.DefaultConfig(100))
	cat := logs.Catalog()
	doc := text.NewDocument("app.log", content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{
		Names: []string{logs.NTEntry, logs.NTLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cat, in)
	res, err := eng.Execute(xsql.MustParse(`SELECT e FROM Entries e WHERE e.Level = "ERROR"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != st.Errors {
		t.Fatalf("results = %d, want %d", res.Stats.Results, st.Errors)
	}
	// Program queries degrade to supersets via word containment.
	res2, err := eng.Execute(xsql.MustParse(`SELECT e FROM Entries e WHERE e.Proc.Program = "nginx"`))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Results != st.TargetEntries {
		t.Fatalf("program results = %d, want %d", res2.Stats.Results, st.TargetEntries)
	}
	if res2.Stats.Exact {
		t.Error("program query cannot be exact without a Program index")
	}
}
