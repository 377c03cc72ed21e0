package algebra

import (
	"fmt"
	"strconv"
	"unicode"

	"qof/internal/qerr"
)

// MaxDepth is the deepest an expression's operator tree may be; Parse
// answers deeper text with a *qerr.DepthError.
const MaxDepth = qerr.MaxQueryDepth

var errTooDeep error = &qerr.DepthError{Lang: "algebra"}

// Parse parses the textual region-algebra syntax documented in the package
// comment into an expression tree.
func Parse(src string) (Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, _, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.tok)
	}
	return e, nil
}

// MustParse is Parse, panicking on error; for tests and fixed expressions.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokOp     // + - & > < >d <d
	tokLParen // (
	tokRParen // )
	tokComma  // ,
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return strconv.Quote(t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) lex() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '+' || c == '-' || c == '&':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	case c == '>' || c == '<':
		l.pos++
		// ">d" / "<d" only when the d is not the start of an identifier.
		if l.pos < len(l.src) && l.src[l.pos] == 'd' &&
			(l.pos+1 >= len(l.src) || !isIdentChar(l.src[l.pos+1])) {
			l.pos++
			return token{kind: tokOp, text: string(c) + "d", pos: start}, nil
		}
		return token{kind: tokOp, text: string(c), pos: start}, nil
	case c == '"':
		// Find the closing quote honoring escapes, then decode with the
		// Go string-literal rules — the inverse of the strconv.Quote used
		// by String(), so rendering round-trips.
		j := l.pos + 1
		for j < len(l.src) && l.src[j] != '"' {
			if l.src[j] == '\\' && j+1 < len(l.src) {
				j++
			}
			j++
		}
		if j >= len(l.src) {
			return token{}, fmt.Errorf("algebra: unterminated string at offset %d", start)
		}
		text, err := strconv.Unquote(l.src[l.pos : j+1])
		if err != nil {
			return token{}, fmt.Errorf("algebra: bad string at offset %d: %v", start, err)
		}
		l.pos = j + 1
		return token{kind: tokString, text: text, pos: start}, nil
	case isIdentStart(c) || isDigit(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, fmt.Errorf("algebra: unexpected character %q at offset %d", c, start)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

type parser struct {
	lex *lexer
	tok token
	// open counts the parentheses, calls and right-grouped inclusions the
	// parser is inside of: its recursion depth. Parentheses build no node,
	// so this is bounded separately from the tree's depth, at 2*MaxDepth: a
	// tree MaxDepth deep renders (String) with at most two of them a level,
	// and must reparse.
	open int
}

// enter opens one level of parser recursion; the caller defers leave.
func (p *parser) enter() error {
	if p.open++; p.open > 2*MaxDepth {
		return errTooDeep
	}
	return nil
}

func (p *parser) leave() { p.open-- }

// binary builds a binary node over operands of the given depths. The parse
// functions return the depth of the tree they built beside it: the
// left-grouping operators chain without recursing, so the parser's own
// recursion does not bound it.
func binary(op BinOp, l Expr, dl int, r Expr, dr int) (Expr, int, error) {
	depth := 1 + max(dl, dr)
	if depth > MaxDepth {
		return nil, 0, errTooDeep
	}
	return Binary{Op: op, L: l, R: r}, depth, nil
}

func (p *parser) next() error {
	t, err := p.lex.lex()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("algebra: offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

// parseExpr handles + and - (lowest precedence, left associative).
func (p *parser) parseExpr() (Expr, int, error) {
	e, depth, err := p.parseInclusion()
	if err != nil {
		return nil, 0, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := OpUnion
		if p.tok.text == "-" {
			op = OpDiff
		}
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		r, dr, err := p.parseInclusion()
		if err != nil {
			return nil, 0, err
		}
		if e, depth, err = binary(op, e, depth, r, dr); err != nil {
			return nil, 0, err
		}
	}
	return e, depth, nil
}

// parseInclusion handles >, >d, <, <d (right associative, per the paper).
func (p *parser) parseInclusion() (Expr, int, error) {
	l, dl, err := p.parseIntersect()
	if err != nil {
		return nil, 0, err
	}
	if p.tok.kind != tokOp {
		return l, dl, nil
	}
	var op BinOp
	switch p.tok.text {
	case ">":
		op = OpIncluding
	case "<":
		op = OpIncluded
	case ">d":
		op = OpDirIncluding
	case "<d":
		op = OpDirIncluded
	default:
		return l, dl, nil
	}
	if err := p.next(); err != nil {
		return nil, 0, err
	}
	if err := p.enter(); err != nil {
		return nil, 0, err
	}
	defer p.leave()
	r, dr, err := p.parseInclusion()
	if err != nil {
		return nil, 0, err
	}
	return binary(op, l, dl, r, dr)
}

// parseIntersect handles & (left associative).
func (p *parser) parseIntersect() (Expr, int, error) {
	e, depth, err := p.parseTerm()
	if err != nil {
		return nil, 0, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&" {
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		r, dr, err := p.parseTerm()
		if err != nil {
			return nil, 0, err
		}
		if e, depth, err = binary(OpIntersect, e, depth, r, dr); err != nil {
			return nil, 0, err
		}
	}
	return e, depth, nil
}

func (p *parser) parseTerm() (Expr, int, error) {
	switch p.tok.kind {
	case tokLParen:
		if err := p.enter(); err != nil {
			return nil, 0, err
		}
		defer p.leave()
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		e, depth, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if p.tok.kind != tokRParen {
			return nil, 0, p.errorf("expected ), got %s", p.tok)
		}
		return e, depth, p.next()
	case tokIdent:
		ident := p.tok.text
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		if p.tok.kind != tokLParen {
			return Name{Ident: ident}, 1, nil
		}
		if err := p.enter(); err != nil {
			return nil, 0, err
		}
		defer p.leave()
		e, depth, err := p.parseCall(ident)
		if err != nil {
			return nil, 0, err
		}
		if depth++; depth > MaxDepth {
			return nil, 0, errTooDeep
		}
		return e, depth, nil
	default:
		return nil, 0, p.errorf("expected region name, function or (, got %s", p.tok)
	}
}

// parseCall parses fn(...) for the built-in functions; the depth it returns
// is that of the deepest argument, 0 when no argument is an expression.
func (p *parser) parseCall(fn string) (Expr, int, error) {
	if err := p.next(); err != nil { // consume (
		return nil, 0, err
	}
	switch fn {
	case "word", "prefix", "match":
		if p.tok.kind != tokString {
			return nil, 0, p.errorf("%s() expects a string argument", fn)
		}
		w := p.tok.text
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, 0, err
		}
		switch fn {
		case "word":
			return Word{W: w}, 0, nil
		case "prefix":
			return Prefix{P: w}, 0, nil
		default:
			return Match{S: w}, 0, nil
		}
	case "innermost", "outermost":
		arg, depth, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, 0, err
		}
		op := OpInnermost
		if fn == "outermost" {
			op = OpOutermost
		}
		return Unary{Op: op, Arg: arg}, depth, nil
	case "contains", "equals", "starts":
		arg, depth, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, 0, err
		}
		if p.tok.kind != tokString {
			return nil, 0, p.errorf("%s() expects a string as second argument", fn)
		}
		w := p.tok.text
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, 0, err
		}
		mode := SelContains
		switch fn {
		case "equals":
			mode = SelEquals
		case "starts":
			mode = SelPrefix
		}
		return Select{Mode: mode, W: w, Arg: arg}, depth, nil
	case "near":
		e1, d1, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, 0, err
		}
		e2, d2, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, 0, err
		}
		k, err := p.number()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, 0, err
		}
		return Near{E: e1, To: e2, K: k}, max(d1, d2), nil
	case "freq":
		arg, depth, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, 0, err
		}
		if p.tok.kind != tokString {
			return nil, 0, p.errorf("freq() expects a string as second argument")
		}
		w := p.tok.text
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, 0, err
		}
		n, err := p.number()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, 0, err
		}
		return Freq{Arg: arg, W: w, N: n}, depth, nil
	default:
		return nil, 0, p.errorf("unknown function %q", fn)
	}
}

// number parses a non-negative integer literal token.
func (p *parser) number() (int, error) {
	t := p.tok
	if t.kind != tokIdent {
		return 0, p.errorf("expected a number, got %s", t)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errorf("expected a non-negative number, got %q", t.text)
	}
	return n, p.next()
}

func (p *parser) expect(k tokKind) error {
	if p.tok.kind != k {
		return p.errorf("unexpected %s", p.tok)
	}
	return p.next()
}
