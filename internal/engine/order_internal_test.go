package engine

import (
	"testing"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/text"
)

// TestEvaluatorKeepsPlanOrder: the engine's evaluator runs a binary
// operator's left operand first, as the plan has it, so an empty right
// operand is met only after the left has run, and nothing is skipped.
func TestEvaluatorKeepsPlanOrder(t *testing.T) {
	content, _ := bibtex.Generate(bibtex.DefaultConfig(20))
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(text.NewDocument("c.bib", content), grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat, in)
	for _, src := range []string{
		`Reference & (Reference > contains(Last_Name, "never-occurs"))`,
		`Last_Name < (Reference > contains(Last_Name, "never-occurs"))`,
	} {
		var st algebra.Stats
		got, err := e.ev.EvalStats(algebra.MustParse(src), &st)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !got.IsEmpty() || st.ShortCircuits != 0 {
			t.Errorf("%s: %d regions, %d short-circuits; want the left side run and an empty answer", src, got.Len(), st.ShortCircuits)
		}
	}
}
