package algebra

import (
	"errors"
	"strings"
	"testing"

	"qof/internal/qerr"
)

// TestDepthLimit pins the nesting limit at its boundary for each way an
// expression gets deep: what is MaxDepth deep parses, renders and reparses;
// one level more is the typed budget error.
func TestDepthLimit(t *testing.T) {
	forms := map[string]func(levels int) string{
		// levels operators over leaves: depth levels+1.
		"call":      func(n int) string { return strings.Repeat("innermost(", n) + "A" + strings.Repeat(")", n) },
		"select":    func(n int) string { return strings.Repeat("contains(", n) + "A" + strings.Repeat(`, "w")`, n) },
		"union":     func(n int) string { return "A" + strings.Repeat(" + A", n) },
		"intersect": func(n int) string { return "A" + strings.Repeat(" & A", n) },
		"inclusion": func(n int) string { return "A" + strings.Repeat(" > A", n) },
		"left":      func(n int) string { return strings.Repeat("(", n) + "A" + strings.Repeat(" > A)", n) },
	}
	for name, form := range forms {
		e, err := Parse(form(MaxDepth - 1))
		if err != nil {
			t.Fatalf("%s: %d deep refused: %v", name, MaxDepth, err)
		}
		if d := exprDepth(e); d != MaxDepth {
			t.Fatalf("%s: built %d deep, want %d", name, d, MaxDepth)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("%s: rendering of a %d-deep expression does not reparse: %v", name, MaxDepth, err)
		}
		if e2.String() != e.String() {
			t.Fatalf("%s: rendering is not a fixpoint at the limit", name)
		}
		_, err = Parse(form(MaxDepth))
		var de *qerr.DepthError
		if !errors.As(err, &de) || !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Fatalf("%s: %d deep: got %v, want a DepthError in the budget family", name, MaxDepth+1, err)
		}
	}
	_, err := Parse(strings.Repeat("(", 500000))
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("500000 open parentheses: got %v, want a budget error", err)
	}
}

// TestStringLinear pins String's and Pretty's cost by allocation count, not
// by a clock: one builder is handed down the tree, so an expression twice as
// deep allocates for the builder's growth only — a handful more, not twice
// as many (each node concatenating its children's strings would allocate
// once per node). The forms nest on both sides, with parentheses, calls and
// quoted words.
func TestStringLinear(t *testing.T) {
	forms := map[string]func(levels int) string{
		"left":   func(n int) string { return strings.Repeat("(", n) + "A" + strings.Repeat(" > A)", n) },
		"right":  func(n int) string { return "A" + strings.Repeat(" >d A", n) },
		"select": func(n int) string { return strings.Repeat("contains(", n) + "A" + strings.Repeat(`, "w")`, n) },
	}
	for name, form := range forms {
		for render, fn := range map[string]func(Expr) string{"String": Expr.String, "Pretty": Pretty} {
			allocs := func(levels int) float64 {
				e := MustParse(form(levels))
				return testing.AllocsPerRun(20, func() { _ = fn(e) })
			}
			half, full := allocs(MaxDepth/2-1), allocs(MaxDepth-1)
			if half > 16 || full > half+4 {
				t.Errorf("%s %s allocates %.0f times at depth %d and %.0f at depth %d; want a builder's growth, not one per node",
					name, render, half, MaxDepth/2, full, MaxDepth)
			}
		}
	}
}
