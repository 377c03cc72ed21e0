// Package algebra implements the PAT region algebra of Section 3 of the
// paper: expressions over named region indices with union, intersection,
// difference, word selection, innermost/outermost, inclusion (⊃, ⊂) and
// direct inclusion (⊃d, ⊂d), together with a textual syntax, an evaluator
// over an index instance, and a static cost model.
//
// The textual syntax (used by the CLI, tests and examples):
//
//	expr   := incl (("+" | "-") incl)*            union, difference
//	incl   := isect ((">" | ">d" | "<" | "<d") incl)?   right-grouped
//	isect  := term ("&" term)*
//	term   := NAME | "(" expr ")"
//	        | "word"(STRING) | "prefix"(STRING)
//	        | "contains"(expr, STRING) | "equals"(expr, STRING)
//	        | "innermost"(expr) | "outermost"(expr)
//
// Following the paper, the inclusion operators are not associative and group
// from the right: A > B > C parses as A > (B > C).
package algebra

import (
	"fmt"
	"strconv"
	"strings"
)

// BinOp identifies a binary operator of the region algebra.
type BinOp int

// Binary operators. The direct variants consult the whole index instance to
// rule out regions lying in between, which makes them significantly more
// expensive (Section 3.1).
const (
	OpUnion        BinOp = iota // e + e
	OpDiff                      // e - e
	OpIntersect                 // e & e
	OpIncluding                 // e > e   (⊃)
	OpIncluded                  // e < e   (⊂)
	OpDirIncluding              // e >d e  (⊃d)
	OpDirIncluded               // e <d e  (⊂d)
)

// IsInclusion reports whether the operator is one of ⊃, ⊂, ⊃d, ⊂d.
func (op BinOp) IsInclusion() bool { return op >= OpIncluding }

// IsDirect reports whether the operator is ⊃d or ⊂d.
func (op BinOp) IsDirect() bool { return op == OpDirIncluding || op == OpDirIncluded }

func (op BinOp) String() string {
	switch op {
	case OpUnion:
		return "+"
	case OpDiff:
		return "-"
	case OpIntersect:
		return "&"
	case OpIncluding:
		return ">"
	case OpIncluded:
		return "<"
	case OpDirIncluding:
		return ">d"
	case OpDirIncluded:
		return "<d"
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// Pretty returns the paper's symbol for the operator.
func (op BinOp) Pretty() string {
	switch op {
	case OpUnion:
		return "∪"
	case OpDiff:
		return "−"
	case OpIntersect:
		return "∩"
	case OpIncluding:
		return "⊃"
	case OpIncluded:
		return "⊂"
	case OpDirIncluding:
		return "⊃d"
	case OpDirIncluded:
		return "⊂d"
	}
	return op.String()
}

// UnOp identifies a unary operator.
type UnOp int

// Unary operators ι and ω.
const (
	OpInnermost UnOp = iota // ι
	OpOutermost             // ω
)

func (op UnOp) String() string {
	if op == OpInnermost {
		return "innermost"
	}
	return "outermost"
}

// SelMode distinguishes the two selection flavours.
type SelMode int

const (
	// SelContains is the paper's σ_w: regions containing the word w.
	SelContains SelMode = iota
	// SelEquals keeps regions whose text is exactly w; used when a query
	// compares a leaf attribute to a constant ("a Last_Name region that
	// is the word Chang").
	SelEquals
	// SelPrefix keeps regions whose text starts with w (PAT's
	// lexicographical search applied to a region's own text).
	SelPrefix
)

func (m SelMode) String() string {
	switch m {
	case SelContains:
		return "contains"
	case SelEquals:
		return "equals"
	default:
		return "starts"
	}
}

// Expr is a region-algebra expression.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Name refers to a named region index R_i.
type Name struct{ Ident string }

// Word denotes the match points of the exact word W (the word index).
type Word struct{ W string }

// Prefix denotes the match points of every word starting with P (PAT's
// prefix search, over the word index's sorted dictionary).
type Prefix struct{ P string }

// Match denotes the match points of every occurrence of the substring S
// anywhere in the text (byte-level suffix-array search).
type Match struct{ S string }

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Unary applies ι or ω.
type Unary struct {
	Op  UnOp
	Arg Expr
}

// Select applies σ: keep regions of Arg related to the word W per Mode.
type Select struct {
	Mode SelMode
	W    string
	Arg  Expr
}

func (Name) isExpr()   {}
func (Word) isExpr()   {}
func (Prefix) isExpr() {}
func (Match) isExpr()  {}
func (Binary) isExpr() {}
func (Unary) isExpr()  {}
func (Select) isExpr() {}

func (e Name) String() string   { return e.Ident }
func (e Word) String() string   { return exprString(e) }
func (e Prefix) String() string { return exprString(e) }
func (e Match) String() string  { return exprString(e) }
func (e Binary) String() string { return exprString(e) }
func (e Unary) String() string  { return exprString(e) }
func (e Select) String() string { return exprString(e) }

// exprString renders e through one builder handed down the tree, so the
// cost is linear in the output: String on each node concatenating its
// children's would be quadratic in the nesting depth. The builder stays on
// the stack, and 64 bytes hold most expressions a plan evaluates.
func exprString(e Expr) string {
	var sb strings.Builder
	sb.Grow(64)
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case Name:
		sb.WriteString(e.Ident)
	case Word:
		writeCall(sb, "word(", e.W)
	case Prefix:
		writeCall(sb, "prefix(", e.P)
	case Match:
		writeCall(sb, "match(", e.S)
	case Binary:
		writeChild(sb, e.L, needsParen(e.L, e.Op, true), false)
		sb.WriteByte(' ')
		sb.WriteString(e.Op.String())
		sb.WriteByte(' ')
		writeChild(sb, e.R, needsParen(e.R, e.Op, false), false)
	case Unary:
		sb.WriteString(e.Op.String())
		sb.WriteByte('(')
		writeExpr(sb, e.Arg)
		sb.WriteByte(')')
	case Select:
		sb.WriteString(e.Mode.String())
		sb.WriteByte('(')
		writeExpr(sb, e.Arg)
		sb.WriteString(", ")
		writeQuoted(sb, e.W)
		sb.WriteByte(')')
	case Near:
		sb.WriteString("near(")
		writeExpr(sb, e.E)
		sb.WriteString(", ")
		writeExpr(sb, e.To)
		sb.WriteString(", ")
		sb.WriteString(strconv.Itoa(e.K))
		sb.WriteByte(')')
	case Freq:
		sb.WriteString("freq(")
		writeExpr(sb, e.Arg)
		sb.WriteString(", ")
		writeQuoted(sb, e.W)
		sb.WriteString(", ")
		sb.WriteString(strconv.Itoa(e.N))
		sb.WriteByte(')')
	}
}

// writeCall renders a one-string call: fn is the name with its parenthesis.
func writeCall(sb *strings.Builder, fn, s string) {
	sb.WriteString(fn)
	writeQuoted(sb, s)
	sb.WriteByte(')')
}

// writeQuoted writes s as a Go string literal, through a stack buffer for
// the common short string.
func writeQuoted(sb *strings.Builder, s string) {
	var buf [64]byte
	sb.Write(strconv.AppendQuote(buf[:0], s))
}

// writeChild writes an operand of a binary node, parenthesized when paren,
// in the String form or, when pretty, in Pretty's.
func writeChild(sb *strings.Builder, child Expr, paren, pretty bool) {
	if paren {
		sb.WriteByte('(')
	}
	if pretty {
		writePretty(sb, child)
	} else {
		writeExpr(sb, child)
	}
	if paren {
		sb.WriteByte(')')
	}
}

// precedence levels for printing: higher binds tighter.
func prec(op BinOp) int {
	// Must mirror the parser's nesting: parseExpr (+,-) calls
	// parseInclusion, which calls parseIntersect — so & binds tighter than
	// the inclusions, which bind tighter than + and -.
	switch op {
	case OpUnion, OpDiff:
		return 1
	case OpIntersect:
		return 3
	default: // inclusion operators
		return 2
	}
}

// needsParen reports whether a child must be parenthesized so that the
// printed form re-parses to the same tree.
func needsParen(child Expr, parent BinOp, leftChild bool) bool {
	b, ok := child.(Binary)
	if !ok {
		return false
	}
	pc, pp := prec(b.Op), prec(parent)
	switch {
	case pc != pp:
		return pc < pp
	case parent.IsInclusion():
		// Inclusion groups from the right: the left child of an
		// inclusion needs parens, the right child does not.
		return leftChild
	default:
		// +,-,& group from the left.
		return !leftChild
	}
}

// Pretty renders the expression with the paper's operator symbols (⊃, σ, ι…).
func Pretty(e Expr) string {
	var sb strings.Builder
	writePretty(&sb, e)
	return sb.String()
}

func writePretty(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case Name:
		sb.WriteString(e.Ident)
	case Word:
		writeQuoted(sb, e.W)
	case Prefix:
		writeQuoted(sb, e.P)
		sb.WriteString("…")
	case Binary:
		b, ok := e.L.(Binary)
		writeChild(sb, e.L, ok && prec(b.Op) <= prec(e.Op), true)
		sb.WriteByte(' ')
		sb.WriteString(e.Op.Pretty())
		sb.WriteByte(' ')
		b, ok = e.R.(Binary)
		writeChild(sb, e.R, ok && prec(b.Op) < prec(e.Op), true)
	case Unary:
		if e.Op == OpInnermost {
			sb.WriteString("ι(")
		} else {
			sb.WriteString("ω(")
		}
		writePretty(sb, e.Arg)
		sb.WriteByte(')')
	case Select:
		switch e.Mode {
		case SelContains:
			sb.WriteString("σ")
		case SelEquals:
			sb.WriteString("σ=")
		default:
			sb.WriteString("σ^")
		}
		writeQuoted(sb, e.W)
		sb.WriteByte('(')
		writePretty(sb, e.Arg)
		sb.WriteByte(')')
	default:
		writeExpr(sb, e)
	}
}

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch a := a.(type) {
	case Name:
		b, ok := b.(Name)
		return ok && a == b
	case Word:
		b, ok := b.(Word)
		return ok && a == b
	case Prefix:
		b, ok := b.(Prefix)
		return ok && a == b
	case Match:
		b, ok := b.(Match)
		return ok && a == b
	case Binary:
		bb, ok := b.(Binary)
		return ok && a.Op == bb.Op && Equal(a.L, bb.L) && Equal(a.R, bb.R)
	case Unary:
		bb, ok := b.(Unary)
		return ok && a.Op == bb.Op && Equal(a.Arg, bb.Arg)
	case Select:
		bb, ok := b.(Select)
		return ok && a.Mode == bb.Mode && a.W == bb.W && Equal(a.Arg, bb.Arg)
	case Near:
		bb, ok := b.(Near)
		return ok && a.K == bb.K && Equal(a.E, bb.E) && Equal(a.To, bb.To)
	case Freq:
		bb, ok := b.(Freq)
		return ok && a.W == bb.W && a.N == bb.N && Equal(a.Arg, bb.Arg)
	}
	return false
}

// Walk calls fn for e and every subexpression of e, parents first.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch e := e.(type) {
	case Binary:
		Walk(e.L, fn)
		Walk(e.R, fn)
	case Unary:
		Walk(e.Arg, fn)
	case Select:
		Walk(e.Arg, fn)
	case Near:
		Walk(e.E, fn)
		Walk(e.To, fn)
	case Freq:
		Walk(e.Arg, fn)
	}
}

// Names returns the distinct region names referenced by e, in first-use order.
func Names(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	Walk(e, func(x Expr) {
		if n, ok := x.(Name); ok && !seen[n.Ident] {
			seen[n.Ident] = true
			out = append(out, n.Ident)
		}
	})
	return out
}

// Chain builds the right-grouped inclusion chain
// n1 op1 (n2 op2 (… σ…(nk))) used throughout the paper, e.g.
// Chain([]string{"Reference","Authors","Last_Name"}, []BinOp{OpIncluding, OpIncluding}, "Chang")
// is Reference ⊃ Authors ⊃ σ"Chang"(Last_Name). With w == "" no selection is
// applied to the last name.
func Chain(names []string, ops []BinOp, w string) Expr {
	if len(ops) != len(names)-1 {
		panic("algebra: Chain needs one fewer op than names")
	}
	var e Expr = Name{Ident: names[len(names)-1]}
	if w != "" {
		e = Select{Mode: SelContains, W: w, Arg: e}
	}
	for i := len(ops) - 1; i >= 0; i-- {
		e = Binary{Op: ops[i], L: Name{Ident: names[i]}, R: e}
	}
	return e
}

// UniformChain is Chain with the same operator between every pair of names.
func UniformChain(op BinOp, w string, names ...string) Expr {
	ops := make([]BinOp, len(names)-1)
	for i := range ops {
		ops[i] = op
	}
	return Chain(names, ops, w)
}
