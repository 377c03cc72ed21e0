package sgml_test

import (
	"fmt"
	"strings"
	"testing"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/scan"
	"qof/internal/sgml"
	"qof/internal/testutil/nesting"
	"qof/internal/text"
	"qof/internal/xsql"
)

func build(t *testing.T, cfg sgml.Config) (*engine.Engine, *text.Document, sgml.Stats) {
	t.Helper()
	content, st := sgml.Generate(cfg)
	cat := sgml.Catalog()
	doc := text.NewDocument("doc.sgml", content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(cat, in), doc, st
}

func TestGeneratedDocParses(t *testing.T) {
	cfg := sgml.DefaultConfig(4, 3)
	eng, _, st := build(t, cfg)
	in := eng.Instance()
	if got := in.MustRegion(sgml.NTSection).Len(); got != st.Sections {
		t.Fatalf("sections = %d, want %d", got, st.Sections)
	}
	if got := in.MustRegion(sgml.NTPara).Len(); got != st.Paras {
		t.Fatalf("paras = %d, want %d", got, st.Paras)
	}
	if err := nesting.Check(in.Sets()); err != nil {
		t.Errorf("regions must nest: %v", err)
	}
	if err := eng.Catalog().Grammar.DeriveRIG().Satisfies(in); err != nil {
		t.Errorf("RIG violated: %v", err)
	}
	// The RIG is cyclic.
	if !eng.Catalog().RIG.HasEdge(sgml.NTSection, sgml.NTSection) {
		t.Error("Section self-edge missing")
	}
}

func TestClosureQueryViaSingleInclusion(t *testing.T) {
	// Section 5.3: "sections containing (at any depth) the target word"
	// is a transitive-closure query in the database but one inclusion
	// expression on the index.
	eng, doc, st := build(t, sgml.DefaultConfig(4, 3))
	q := xsql.MustParse(`SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "needle"`)
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != st.TargetSections {
		t.Fatalf("results = %d, target sections = %d\n%s",
			res.Stats.Results, st.TargetSections, res.Plan.Explain())
	}
	if !res.Stats.Exact {
		t.Errorf("closure CONTAINS should be exact:\n%s", res.Plan.Explain())
	}
	// The baseline agrees.
	base, err := scan.FullScan(eng.Catalog(), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Objects) != res.Stats.Results {
		t.Fatalf("engine %d, baseline %d", res.Stats.Results, len(base.Objects))
	}
}

func TestClosureCountsMatchGroundTruth(t *testing.T) {
	// Via the region algebra directly: sections ⊃ needle-paras plus the
	// needle-paras' own sections equals the ground-truth count.
	eng, _, st := build(t, sgml.DefaultConfig(4, 3))
	ev := algebra.NewEvaluator(eng.Instance())
	needleParas, err := ev.Eval(algebra.MustParse(`contains(Para, "needle")`))
	if err != nil {
		t.Fatal(err)
	}
	if needleParas.Len() != st.TargetParas {
		t.Fatalf("needle paras = %d, want %d", needleParas.Len(), st.TargetParas)
	}
	containing, err := ev.Eval(algebra.MustParse(`Section > contains(Para, "needle")`))
	if err != nil {
		t.Fatal(err)
	}
	if containing.Len() != st.TargetSections {
		t.Fatalf("sections with needle = %d, want %d", containing.Len(), st.TargetSections)
	}
}

func TestDirectVsTransitiveSubsections(t *testing.T) {
	eng, _, _ := build(t, sgml.DefaultConfig(4, 2))
	ev := algebra.NewEvaluator(eng.Instance())
	direct, err := ev.Eval(algebra.MustParse(`Section >d Section`))
	if err != nil {
		t.Fatal(err)
	}
	all, err := ev.Eval(algebra.MustParse(`Section > Section`))
	if err != nil {
		t.Fatal(err)
	}
	// Depth 4, fanout 2: sections at depths 1..3 have children; all of
	// them include some section both directly and transitively.
	if !direct.Equal(all) {
		t.Fatalf("direct %d vs transitive %d parents", direct.Len(), all.Len())
	}
	// Grandparent-only inclusion differs: sections containing a section
	// that contains a section (depth 1..2 only).
	grand, err := ev.Eval(algebra.MustParse(`Section > Section > Section`))
	if err != nil {
		t.Fatal(err)
	}
	if grand.Len() >= all.Len() {
		t.Fatalf("grandparents %d should be fewer than parents %d", grand.Len(), all.Len())
	}
	// Innermost sections are the leaves.
	inner, err := ev.Eval(algebra.MustParse(`innermost(Section)`))
	if err != nil {
		t.Fatal(err)
	}
	if inner.Len() != 8 { // fanout 2, depth 4 → 8 leaves
		t.Fatalf("leaves = %d", inner.Len())
	}
}

func TestTitleQueries(t *testing.T) {
	eng, doc, _ := build(t, sgml.DefaultConfig(3, 2))
	q := xsql.MustParse(`SELECT s.Title FROM Sections s WHERE s.Title = "section 1-1"`)
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strings) != 1 || res.Strings[0] != "section 1-1" {
		t.Fatalf("strings = %v", res.Strings)
	}
	base, err := scan.FullScan(eng.Catalog(), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Strings) != 1 {
		t.Fatalf("baseline = %v", base.Strings)
	}
}

func TestVeryDeepNesting(t *testing.T) {
	// A pathological linear chain of 800 nested sections parses, nests,
	// and supports direct inclusion.
	var sb strings.Builder
	sb.WriteString("<doc>")
	const depth = 800
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "<sec><t>lvl%d</t>", i)
	}
	sb.WriteString("<p>bottom needle</p>")
	for i := 0; i < depth; i++ {
		sb.WriteString("</sec>")
	}
	sb.WriteString("</doc>")
	cat := sgml.Catalog()
	doc := text.NewDocument("deep.sgml", sb.String())
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.MustRegion(sgml.NTSection).Len(); got != depth {
		t.Fatalf("sections = %d", got)
	}
	ev := algebra.NewEvaluator(in)
	direct, err := ev.Eval(algebra.MustParse(`Section >d Section`))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Len() != depth-1 {
		t.Fatalf("direct parents = %d, want %d", direct.Len(), depth-1)
	}
	all, err := ev.Eval(algebra.MustParse(`Section > contains(Para, "needle")`))
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != depth {
		t.Fatalf("closure = %d, want %d", all.Len(), depth)
	}
}
