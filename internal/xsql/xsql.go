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
	"sync/atomic"
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
	var sb strings.Builder
	p.writeTo(&sb)
	return sb.String()
}

func (p Path) writeTo(sb *strings.Builder) {
	sb.WriteString(p.Var)
	for _, s := range p.Segs {
		sb.WriteByte('.')
		sb.WriteString(s.String())
	}
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
	// writeTo renders the condition into sb. Rendering goes through one
	// builder handed down the tree, so it is linear in the output; String
	// on each node concatenating its children's would be quadratic in the
	// nesting depth.
	writeTo(sb *strings.Builder)
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

func (c CmpConst) writeTo(sb *strings.Builder) {
	c.Path.writeTo(sb)
	sb.WriteString(" = ")
	sb.WriteString(strconv.Quote(c.Word))
}

func (c CmpContains) writeTo(sb *strings.Builder) {
	c.Path.writeTo(sb)
	sb.WriteString(" CONTAINS ")
	sb.WriteString(strconv.Quote(c.Word))
}

func (c CmpStarts) writeTo(sb *strings.Builder) {
	c.Path.writeTo(sb)
	sb.WriteString(" STARTS ")
	sb.WriteString(strconv.Quote(c.Prefix))
}

func (c CmpPaths) writeTo(sb *strings.Builder) {
	c.L.writeTo(sb)
	sb.WriteString(" = ")
	c.R.writeTo(sb)
}

func (c And) writeTo(sb *strings.Builder) { writeBinary(sb, c.L, " AND ", c.R) }
func (c Or) writeTo(sb *strings.Builder)  { writeBinary(sb, c.L, " OR ", c.R) }

func (c Not) writeTo(sb *strings.Builder) {
	sb.WriteString("(NOT ")
	c.C.writeTo(sb)
	sb.WriteByte(')')
}

func writeBinary(sb *strings.Builder, l Cond, op string, r Cond) {
	sb.WriteByte('(')
	l.writeTo(sb)
	sb.WriteString(op)
	r.writeTo(sb)
	sb.WriteByte(')')
}

func condString(c Cond) string {
	var sb strings.Builder
	c.writeTo(&sb)
	return sb.String()
}

func (c CmpConst) String() string    { return condString(c) }
func (c CmpContains) String() string { return condString(c) }
func (c CmpStarts) String() string   { return condString(c) }
func (c CmpPaths) String() string    { return condString(c) }
func (c And) String() string         { return condString(c) }
func (c Or) String() string          { return condString(c) }
func (c Not) String() string         { return condString(c) }

// FromClause binds a range variable to a class extent.
type FromClause struct {
	Class string
	Var   string
}

// Query is a parsed SELECT–FROM–WHERE query. It is immutable once built —
// Parse returns it complete, and a generator fills one in before handing it
// out — which is what lets String remember its answer; derive a variant with
// WithLimit, not by copying the struct.
type Query struct {
	Select Path
	From   []FromClause
	Where  Cond // nil when absent
	Limit  int  // LIMIT k caps the result rows; 0 means unlimited

	text atomic.Pointer[string] // String's answer, rendered on first use
}

// WithLimit returns a copy of the query with its LIMIT replaced by k (0
// removes it).
func (q *Query) WithLimit(k int) *Query {
	return &Query{Select: q.Select, From: q.From, Where: q.Where, Limit: k}
}

// String renders the query in normalized form: reparsing it yields the same
// query, and two spellings of one query render alike, so it keys the plan
// cache. The text is rendered once per query.
func (q *Query) String() string {
	if s := q.text.Load(); s != nil {
		return *s
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	q.Select.writeTo(&sb)
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
		q.Where.writeTo(&sb)
	}
	if q.Limit > 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.Itoa(q.Limit))
	}
	s := sb.String()
	q.text.Store(&s)
	return s
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
