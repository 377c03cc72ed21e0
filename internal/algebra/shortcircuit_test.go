package algebra

import (
	"testing"
)

// TestShortCircuit checks that an operator other than ∪ whose left operand
// evaluates empty skips its right side (counted in Stats.ShortCircuits)
// without changing results. The evaluator runs the left operand first and
// never reorders: when the empty side is on the right, the left side runs
// and nothing is skipped, with the same empty answer.
func TestShortCircuit(t *testing.T) {
	in := fixture(t)

	for _, tc := range []struct {
		src  string
		skip bool // the empty operand is the left one
	}{
		{`(Reference > contains(Last_Name, "never-occurs")) & Reference`, true},
		{`Reference & (Reference > contains(Last_Name, "never-occurs"))`, false},
		{`(Reference > contains(Last_Name, "never-occurs")) > Name`, true},
		{`Last_Name < (Reference > contains(Last_Name, "never-occurs"))`, false},
		{`(Reference > contains(Last_Name, "never-occurs")) - Reference`, true},
	} {
		var es Stats
		got, err := NewEvaluator(in).EvalStats(MustParse(tc.src), &es)
		if err != nil {
			t.Fatalf("EvalStats(%q): %v", tc.src, err)
		}
		if !got.IsEmpty() {
			t.Errorf("%s: expected empty result, got %v", tc.src, got)
		}
		if tc.skip && es.ShortCircuits == 0 {
			t.Errorf("%s: empty left operand did not short-circuit: %+v", tc.src, es)
		}
		if !tc.skip && es.ShortCircuits != 0 {
			t.Errorf("%s: the non-empty left operand must run and skip nothing: %+v", tc.src, es)
		}
	}

	// Union and the right side of difference must never be skipped: the
	// other operand still contributes to the result.
	for _, src := range []string{
		`(Authors & Editors) + Reference`,
		`Reference - (Authors & Editors)`,
	} {
		got, err := NewEvaluator(in).Eval(MustParse(src))
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if got.Len() != 2 {
			t.Errorf("%s: expected the 2 references, got %v", src, got)
		}
	}
}

// TestShortCircuitErrorParity pins the error contract differential testing
// relies on: when the skipped operand would have failed (an unindexed
// name), the evaluator must still report the error instead of silently
// returning an empty set.
func TestShortCircuitErrorParity(t *testing.T) {
	in := fixture(t)
	// Left side evaluates empty; right side references an unindexed name.
	_, err := NewEvaluator(in).Eval(MustParse(`(Authors & Editors) & Unindexed`))
	if err == nil {
		t.Fatal("expected unindexed-name error, short-circuit swallowed it")
	}
}
