package algebra

import (
	"errors"
	"strings"
	"testing"

	"qof/internal/qerr"
)

// algebraSeeds are expressions from the test suite plus edge cases around
// operator juxtaposition (">d" vs "> dB"), string escapes, and malformed
// input.
var algebraSeeds = []string{
	`Reference > Authors > contains(Last_Name, "Chang")`,
	`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`,
	`equals(Last_Name, "Chang") < Authors`,
	`A > B > C`,
	`(A > B) > C`,
	`A >d B`,
	`A > dB`,
	`A <d B`,
	`A >d B >d C`,
	`Reference > Authors > contains(Last_Name, "Chang") + Reference`,
	`Section > Section`,
	`Section > contains(Para, "needle")`,
	`A + B - C & D`,
	`starts(Key, "Corl")`,
	`freq(A, 2)`,
	`contains(T, "a \"quote\" and a \\ backslash")`,
	`contains(T, "tab\tnewline\n")`,
	`>>>`,
	`contains(`,
	`"unterminated`,
	`contains(T, "\x")`,
	strings.Repeat("innermost(", MaxDepth) + "A" + strings.Repeat(")", MaxDepth),
	strings.Repeat("(", 2*MaxDepth+1) + "A",
	"A" + strings.Repeat(" & A", MaxDepth),
	"A" + strings.Repeat(" > A", MaxDepth),
}

// exprDepth is the depth of the expression's operator tree, a leaf counting 1.
func exprDepth(e Expr) int {
	switch e := e.(type) {
	case Binary:
		return 1 + max(exprDepth(e.L), exprDepth(e.R))
	case Unary:
		return 1 + exprDepth(e.Arg)
	case Select:
		return 1 + exprDepth(e.Arg)
	case Near:
		return 1 + max(exprDepth(e.E), exprDepth(e.To))
	case Freq:
		return 1 + exprDepth(e.Arg)
	}
	return 1
}

// FuzzAlgebraParse asserts the region-algebra parser never panics; that it
// refuses only with an ordinary error or the typed depth error, and what it
// accepts nests at most MaxDepth deep; and that every accepted expression
// round-trips: parse → String → reparse succeeds and re-rendering is a
// fixpoint.
func FuzzAlgebraParse(f *testing.F) {
	for _, s := range algebraSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			var de *qerr.DepthError
			if errors.Is(err, qerr.ErrBudgetExceeded) != errors.As(err, &de) {
				t.Fatalf("budget error that is no DepthError, or the reverse: %v", err)
			}
			return
		}
		if d := exprDepth(e); d > MaxDepth {
			t.Fatalf("accepted an expression %d deep, limit %d:\n  input %q", d, MaxDepth, src)
		}
		s1 := e.String()
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("String() of accepted expression does not reparse:\n  input  %q\n  render %q\n  err    %v", src, s1, err)
		}
		if s2 := e2.String(); s2 != s1 {
			t.Fatalf("String() is not a fixpoint:\n  input   %q\n  render1 %q\n  render2 %q", src, s1, s2)
		}
	})
}
