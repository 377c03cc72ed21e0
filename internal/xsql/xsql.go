// Package xsql implements the query-language front end: the subset of XSQL
// (Kifer, Kim & Sagiv, as used by the paper) that the paper compiles onto
// the region algebra. Supported queries have the shape
//
//	SELECT r            FROM References r WHERE r.Authors.Name.Last_Name = "Chang"
//	SELECT r.p          FROM References r                          -- projection
//	SELECT r FROM References r WHERE r.Editors.Name = r.Authors.Name  -- value join
//	SELECT r FROM References r WHERE c1 AND (c2 OR NOT c3)            -- boolean criteria
//	SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"         -- path variable
//	SELECT r FROM References r WHERE r.?X.Name.Last_Name = "Chang"    -- one-step variable
//	SELECT r FROM References r WHERE r.Abstract CONTAINS "taylor"     -- σ_w word containment
//	SELECT r FROM References r WHERE r.Key STARTS "Corl"              -- prefix search
//
// Path variables follow Section 5.3: *X matches an arbitrary path (zero or
// more steps), while ?X matches exactly one step (the paper writes bare
// variables X1…Xn; this dialect marks them with ? so they cannot be
// confused with attribute names).
package xsql

import (
	"fmt"
	"strconv"
	"strings"
)

// Seg is one segment of a path expression.
type Seg struct {
	Attr string // attribute name when Star and Any are false
	Star bool   // *X: arbitrary path (zero or more steps)
	Any  bool   // ?X: exactly one arbitrary step
	Var  string // variable name for Star/Any segments (may be empty)
}

func (s Seg) String() string {
	switch {
	case s.Star:
		return "*" + s.Var
	case s.Any:
		return "?" + s.Var
	default:
		return s.Attr
	}
}

// Path is a variable followed by segments: r.Authors.Name.Last_Name.
type Path struct {
	Var  string
	Segs []Seg
}

func (p Path) String() string {
	parts := make([]string, 0, 1+len(p.Segs))
	parts = append(parts, p.Var)
	for _, s := range p.Segs {
		parts = append(parts, s.String())
	}
	return strings.Join(parts, ".")
}

// HasVariables reports whether the path contains * or ? segments.
func (p Path) HasVariables() bool {
	for _, s := range p.Segs {
		if s.Star || s.Any {
			return true
		}
	}
	return false
}

// Attrs returns the attribute names of a variable-free path.
func (p Path) Attrs() []string {
	out := make([]string, len(p.Segs))
	for i, s := range p.Segs {
		out[i] = s.Attr
	}
	return out
}

// Cond is a boolean selection criterion.
type Cond interface {
	fmt.Stringer
	isCond()
}

// CmpConst compares a path expression to a string constant.
type CmpConst struct {
	Path Path
	Word string
}

// CmpContains tests whether a value reached by the path contains the word
// (whole-word containment) — the query-level counterpart of the region
// algebra's σ_w selection.
type CmpContains struct {
	Path Path
	Word string
}

// CmpStarts tests whether a value reached by the path starts with the
// prefix — the query-level counterpart of PAT's lexicographical search.
type CmpStarts struct {
	Path   Path
	Prefix string
}

// CmpPaths compares the values of two path expressions (a value join).
type CmpPaths struct {
	L, R Path
}

// And is conjunction.
type And struct{ L, R Cond }

// Or is disjunction.
type Or struct{ L, R Cond }

// Not is negation.
type Not struct{ C Cond }

func (CmpConst) isCond()    {}
func (CmpContains) isCond() {}
func (CmpStarts) isCond()   {}
func (CmpPaths) isCond()    {}
func (And) isCond()         {}
func (Or) isCond()          {}
func (Not) isCond()         {}

func (c CmpConst) String() string { return c.Path.String() + " = " + strconv.Quote(c.Word) }
func (c CmpContains) String() string {
	return c.Path.String() + " CONTAINS " + strconv.Quote(c.Word)
}
func (c CmpStarts) String() string {
	return c.Path.String() + " STARTS " + strconv.Quote(c.Prefix)
}
func (c CmpPaths) String() string { return c.L.String() + " = " + c.R.String() }
func (c And) String() string      { return "(" + c.L.String() + " AND " + c.R.String() + ")" }
func (c Or) String() string       { return "(" + c.L.String() + " OR " + c.R.String() + ")" }
func (c Not) String() string      { return "(NOT " + c.C.String() + ")" }

// FromClause binds a range variable to a class extent.
type FromClause struct {
	Class string
	Var   string
}

// Query is a parsed SELECT–FROM–WHERE query.
type Query struct {
	Select Path
	From   []FromClause
	Where  Cond // nil when absent
	Limit  int  // LIMIT k caps the result rows; 0 means unlimited
}

func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(q.Select.String())
	sb.WriteString(" FROM ")
	for i, f := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.Class)
		sb.WriteByte(' ')
		sb.WriteString(f.Var)
	}
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Where.String())
	}
	if q.Limit > 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.Itoa(q.Limit))
	}
	return sb.String()
}

// ClassOf resolves a range variable to its class.
func (q *Query) ClassOf(v string) (string, bool) {
	for _, f := range q.From {
		if f.Var == v {
			return f.Class, true
		}
	}
	return "", false
}

// Conds flattens the WHERE clause into the comparisons it contains.
func Conds(c Cond) []Cond {
	var out []Cond
	var walk func(Cond)
	walk = func(c Cond) {
		switch c := c.(type) {
		case And:
			walk(c.L)
			walk(c.R)
		case Or:
			walk(c.L)
			walk(c.R)
		case Not:
			walk(c.C)
		case nil:
		default:
			out = append(out, c)
		}
	}
	walk(c)
	return out
}

// CondPaths lists the paths the WHERE clause's comparisons navigate, in
// clause order; a path comparison contributes both sides.
func CondPaths(c Cond) []Path {
	var out []Path
	for _, c := range Conds(c) {
		switch c := c.(type) {
		case CmpConst:
			out = append(out, c.Path)
		case CmpContains:
			out = append(out, c.Path)
		case CmpStarts:
			out = append(out, c.Path)
		case CmpPaths:
			out = append(out, c.L, c.R)
		}
	}
	return out
}
