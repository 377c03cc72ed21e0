package xsql

import (
	"errors"
	"strings"
	"testing"

	"qof/internal/qerr"
)

// fuzzSeeds are real queries from the test suite plus edge cases around
// string escaping, path variables and operator nesting.
var fuzzSeeds = []string{
	`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r.Key FROM References r WHERE r.Editors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`,
	`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.?X.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Title CONTAINS "Systems" AND r.Authors.Name.Last_Name = "Chang"`,
	`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" OR r.Editors.Name.Last_Name = "Corliss"`,
	`SELECT r FROM References r WHERE r.Authors.Name.Last_Name STARTS "Cor"`,
	`SELECT r FROM References r`,
	`SELECT r FROM References r, References s WHERE r.Key = s.Key`,
	`SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "needle"`,
	`SELECT r FROM References r WHERE r.Title = "a \"quoted\" title"`,
	`SELECT r FROM References r WHERE r.Title = "tab\tnewline\nbackslash\\"`,
	`SELECT r FROM References r WHERE r.Title = ""`,
	`SELECT`,
	`SELECT r FROM`,
	`"unterminated`,
	`SELECT r FROM References r WHERE r.Title = "\x"`,
	`SELECT r FROM References r LIMIT 10`,
	`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang" LIMIT 1`,
	`SELECT r FROM References r LIMIT 0`,
	`SELECT r FROM References r LIMIT -3`,
	`SELECT r FROM References r LIMIT`,
	`SELECT r FROM References r LIMIT x`,
	`SELECT r FROM References r LIMIT "2"`,
	`SELECT r FROM References r LIMIT 2 LIMIT 3`,
	`SELECT r FROM References r WHERE ` + strings.Repeat("NOT ", MaxDepth) + `r.Key = "k"`,
	`SELECT r FROM References r WHERE ` + strings.Repeat("(", 2*MaxDepth+1) + `r.Key = "k"`,
	`SELECT r FROM References r WHERE r.Key = "k"` + strings.Repeat(` AND r.Key = "k"`, MaxDepth),
}

// condDepth is the depth of the condition's operator tree, a comparison
// counting 1.
func condDepth(c Cond) int {
	switch c := c.(type) {
	case And:
		return 1 + max(condDepth(c.L), condDepth(c.R))
	case Or:
		return 1 + max(condDepth(c.L), condDepth(c.R))
	case Not:
		return 1 + condDepth(c.C)
	case nil:
		return 0
	}
	return 1
}

// FuzzXSQLParse asserts three properties on arbitrary input: the parser
// never panics; it refuses only with an ordinary error or the typed depth
// error, and what it accepts nests at most MaxDepth deep; and every accepted
// query round-trips — parse → String → reparse succeeds and re-rendering is a
// fixpoint.
func FuzzXSQLParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			var de *qerr.DepthError
			if errors.Is(err, qerr.ErrBudgetExceeded) != errors.As(err, &de) {
				t.Fatalf("budget error that is no DepthError, or the reverse: %v", err)
			}
			return // rejection is fine; panics are caught by the harness
		}
		if d := condDepth(q.Where); d > MaxDepth {
			t.Fatalf("accepted a WHERE clause %d deep, limit %d:\n  input %q", d, MaxDepth, src)
		}
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("String() of accepted query does not reparse:\n  input  %q\n  render %q\n  err    %v", src, s1, err)
		}
		if s2 := q2.String(); s2 != s1 {
			t.Fatalf("String() is not a fixpoint:\n  input   %q\n  render1 %q\n  render2 %q", src, s1, s2)
		}
	})
}
