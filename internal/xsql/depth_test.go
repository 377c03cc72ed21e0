package xsql

import (
	"errors"
	"strings"
	"testing"

	"qof/internal/qerr"
)

const depthHead = `SELECT r FROM References r WHERE `

// TestDepthLimit pins the nesting limit at its boundary for each way a WHERE
// clause gets deep: what is MaxDepth deep parses, renders and reparses; one
// level more is the typed budget error.
func TestDepthLimit(t *testing.T) {
	leaf := `r.Key = "k"`
	forms := map[string]func(levels int) string{
		// levels operators over one comparison: depth levels+1.
		"not":   func(n int) string { return strings.Repeat("NOT ", n) + leaf },
		"and":   func(n int) string { return leaf + strings.Repeat(" AND "+leaf, n) },
		"or":    func(n int) string { return leaf + strings.Repeat(" OR "+leaf, n) },
		"right": func(n int) string { return strings.Repeat(leaf+" AND (", n) + leaf + strings.Repeat(")", n) },
	}
	for name, form := range forms {
		q, err := Parse(depthHead + form(MaxDepth-1))
		if err != nil {
			t.Fatalf("%s: %d deep refused: %v", name, MaxDepth, err)
		}
		if d := condDepth(q.Where); d != MaxDepth {
			t.Fatalf("%s: built %d deep, want %d", name, d, MaxDepth)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("%s: rendering of a %d-deep query does not reparse: %v", name, MaxDepth, err)
		}
		if q2.String() != q.String() {
			t.Fatalf("%s: rendering is not a fixpoint at the limit", name)
		}
		_, err = Parse(depthHead + form(MaxDepth))
		var de *qerr.DepthError
		if !errors.As(err, &de) || !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Fatalf("%s: %d deep: got %v, want a DepthError in the budget family", name, MaxDepth+1, err)
		}
	}
	// Parentheses build no node, but each is a frame of the parser.
	if _, err := Parse(depthHead + strings.Repeat("(", 2*MaxDepth) + leaf + strings.Repeat(")", 2*MaxDepth)); err != nil {
		t.Fatalf("%d parentheses refused: %v", 2*MaxDepth, err)
	}
	_, err := Parse(depthHead + strings.Repeat("(", 500000))
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("500000 open parentheses: got %v, want a budget error", err)
	}
	_, err = Parse(depthHead + strings.Repeat("NOT ", 100000) + leaf)
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("100000 NOTs: got %v, want a budget error", err)
	}
}

// TestStringLinear pins String's cost by allocation count, not by a clock:
// one builder is handed down the tree, so a query twice as deep allocates
// for the builder's growth only — a handful more, not twice as many (each
// node concatenating its children's strings would allocate once per node).
func TestStringLinear(t *testing.T) {
	allocs := func(levels int) float64 {
		q := MustParse(depthHead + strings.Repeat("NOT ", levels) + `r.Key = "k"`)
		return testing.AllocsPerRun(20, func() {
			q.text.Store(nil) // forget the memoized answer
			_ = q.String()
		})
	}
	half, full := allocs(MaxDepth/2-1), allocs(MaxDepth-1)
	if half > 16 || full > half+4 {
		t.Fatalf("String allocates %.0f times at depth %d and %.0f at depth %d; want a builder's growth, not one per node",
			half, MaxDepth/2, full, MaxDepth)
	}
}

// TestStringMemoized: the normalized text is rendered once per query, and a
// WithLimit variant renders its own.
func TestStringMemoized(t *testing.T) {
	q := MustParse(depthHead + `r.Key = "k" LIMIT 3`)
	first := q.String()
	if n := testing.AllocsPerRun(20, func() { _ = q.String() }); n != 0 {
		t.Fatalf("a repeated String allocates %.0f times, want 0", n)
	}
	if got := q.WithLimit(7).String(); got != strings.Replace(first, "LIMIT 3", "LIMIT 7", 1) {
		t.Fatalf("WithLimit(7) renders %q", got)
	}
	if got := q.WithLimit(0).String(); got != strings.TrimSuffix(first, " LIMIT 3") {
		t.Fatalf("WithLimit(0) renders %q", got)
	}
	if q.String() != first {
		t.Fatal("WithLimit changed its receiver")
	}
}
