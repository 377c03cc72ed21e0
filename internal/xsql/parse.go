package xsql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"qof/internal/qerr"
)

// MaxDepth is the deepest a WHERE clause's operator tree may be; Parse
// answers deeper text with a *qerr.DepthError.
const MaxDepth = qerr.MaxQueryDepth

var errTooDeep error = &qerr.DepthError{Lang: "xsql"}

// Parse parses a query in the dialect documented in the package comment.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("xsql: unexpected %q after query", p.peek().text)
	}
	if err := q.check(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse, panicking on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// check validates variable scoping.
func (q *Query) check() error {
	seen := make(map[string]bool)
	for _, f := range q.From {
		if seen[f.Var] {
			return fmt.Errorf("xsql: range variable %q bound twice", f.Var)
		}
		seen[f.Var] = true
	}
	var paths []Path
	paths = append(paths, q.Select)
	for _, c := range Conds(q.Where) {
		switch c := c.(type) {
		case CmpConst:
			paths = append(paths, c.Path)
		case CmpContains:
			paths = append(paths, c.Path)
		case CmpStarts:
			paths = append(paths, c.Path)
		case CmpPaths:
			paths = append(paths, c.L, c.R)
		}
	}
	for _, p := range paths {
		if !seen[p.Var] {
			return fmt.Errorf("xsql: unbound range variable %q in path %s", p.Var, p)
		}
	}
	return nil
}

type token struct {
	text string
	str  bool // quoted string literal
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '"':
			// Find the closing quote, honoring backslash escapes, then
			// decode with the Go string-literal rules. String() renders
			// words with strconv.Quote, so lexing with strconv.Unquote
			// makes parse → String → reparse the identity.
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("xsql: unterminated string constant at offset %d", i)
			}
			word, err := strconv.Unquote(src[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("xsql: bad string constant at offset %d: %v", i, err)
			}
			toks = append(toks, token{text: word, str: true})
			i = j + 1
		case c == '.' || c == ',' || c == '=' || c == '(' || c == ')' || c == '*' || c == '?':
			toks = append(toks, token{text: string(c)})
			i++
		case isIdent(c):
			j := i
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			toks = append(toks, token{text: src[i:j]})
			i = j
		default:
			toks = append(toks, token{text: string(c)})
			i++
		}
	}
	return toks, nil
}

func isIdent(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

type parser struct {
	toks []token
	pos  int
	// open counts the NOTs and parentheses the parser is inside of: its
	// recursion depth. Parentheses build no node, so this is bounded
	// separately from the tree's depth, at 2*MaxDepth: a tree MaxDepth deep
	// renders (String) with at most two of them a level, and must reparse.
	open int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.eof() {
		return token{}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

// keyword consumes the case-insensitive keyword if present.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if !t.str && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.str || t.text == "" || !isIdent(t.text[0]) {
		return "", fmt.Errorf("xsql: expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) expect(text string) error {
	t := p.peek()
	if t.str || t.text != text {
		return fmt.Errorf("xsql: expected %q, got %q", text, t.text)
	}
	p.pos++
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if !p.keyword("SELECT") {
		return nil, fmt.Errorf("xsql: query must start with SELECT")
	}
	sel, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if !p.keyword("FROM") {
		return nil, fmt.Errorf("xsql: expected FROM, got %q", p.peek().text)
	}
	q := &Query{Select: sel}
	for {
		class, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("xsql: FROM clause: %w", err)
		}
		v, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("xsql: FROM clause needs a range variable after %q: %w", class, err)
		}
		q.From = append(q.From, FromClause{Class: class, Var: v})
		if p.peek().text != "," || p.peek().str {
			break
		}
		p.pos++
	}
	if p.keyword("WHERE") {
		cond, _, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = cond
	}
	if p.keyword("LIMIT") {
		t := p.peek()
		n, err := strconv.Atoi(t.text)
		if t.str || err != nil || n < 1 {
			return nil, fmt.Errorf("xsql: LIMIT expects a positive integer, got %q", t.text)
		}
		p.pos++
		q.Limit = n
	}
	return q, nil
}

// The condition parsers return the depth of the tree they built beside it:
// AND and OR chains group to the left without recursing, so the parser's own
// recursion does not bound it.
func (p *parser) parseOr() (Cond, int, error) {
	l, depth, err := p.parseAnd()
	if err != nil {
		return nil, 0, err
	}
	for p.keyword("OR") {
		r, dr, err := p.parseAnd()
		if err != nil {
			return nil, 0, err
		}
		l, depth = Or{L: l, R: r}, 1+max(depth, dr)
		if depth > MaxDepth {
			return nil, 0, errTooDeep
		}
	}
	return l, depth, nil
}

func (p *parser) parseAnd() (Cond, int, error) {
	l, depth, err := p.parseNot()
	if err != nil {
		return nil, 0, err
	}
	for p.keyword("AND") {
		r, dr, err := p.parseNot()
		if err != nil {
			return nil, 0, err
		}
		l, depth = And{L: l, R: r}, 1+max(depth, dr)
		if depth > MaxDepth {
			return nil, 0, errTooDeep
		}
	}
	return l, depth, nil
}

func (p *parser) parseNot() (Cond, int, error) {
	not := p.keyword("NOT")
	if !not && (p.peek().text != "(" || p.peek().str) {
		c, err := p.parseComparison()
		return c, 1, err
	}
	if p.open++; p.open > 2*MaxDepth {
		return nil, 0, errTooDeep
	}
	defer func() { p.open-- }()
	if not {
		c, depth, err := p.parseNot()
		if err != nil {
			return nil, 0, err
		}
		if depth++; depth > MaxDepth {
			return nil, 0, errTooDeep
		}
		return Not{C: c}, depth, nil
	}
	p.pos++
	c, depth, err := p.parseOr()
	if err != nil {
		return nil, 0, err
	}
	if err := p.expect(")"); err != nil {
		return nil, 0, err
	}
	return c, depth, nil
}

func (p *parser) parseComparison() (Cond, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if p.keyword("CONTAINS") {
		t := p.peek()
		if !t.str {
			return nil, fmt.Errorf("xsql: CONTAINS expects a string constant, got %q", t.text)
		}
		p.pos++
		return CmpContains{Path: l, Word: t.text}, nil
	}
	if p.keyword("STARTS") {
		t := p.peek()
		if !t.str {
			return nil, fmt.Errorf("xsql: STARTS expects a string constant, got %q", t.text)
		}
		p.pos++
		return CmpStarts{Path: l, Prefix: t.text}, nil
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.str {
		p.pos++
		return CmpConst{Path: l, Word: t.text}, nil
	}
	r, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	return CmpPaths{L: l, R: r}, nil
}

func (p *parser) parsePath() (Path, error) {
	v, err := p.ident()
	if err != nil {
		return Path{}, err
	}
	path := Path{Var: v}
	for p.peek().text == "." && !p.peek().str {
		p.pos++
		t := p.peek()
		switch {
		case t.text == "*" && !t.str:
			p.pos++
			name := ""
			if nt := p.peek(); !nt.str && nt.text != "" && isIdent(nt.text[0]) && !isKeyword(nt.text) {
				name = nt.text
				p.pos++
			}
			path.Segs = append(path.Segs, Seg{Star: true, Var: name})
		case t.text == "?" && !t.str:
			p.pos++
			name := ""
			if nt := p.peek(); !nt.str && nt.text != "" && isIdent(nt.text[0]) && !isKeyword(nt.text) {
				name = nt.text
				p.pos++
			}
			path.Segs = append(path.Segs, Seg{Any: true, Var: name})
		default:
			a, err := p.ident()
			if err != nil {
				return Path{}, fmt.Errorf("xsql: path %s: %w", path, err)
			}
			path.Segs = append(path.Segs, Seg{Attr: a})
		}
	}
	return path, nil
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "CONTAINS", "STARTS", "LIMIT":
		return true
	}
	return false
}
