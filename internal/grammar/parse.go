package grammar

import (
	"fmt"
	"sync"

	"qof/internal/db"
	"qof/internal/qerr"
	"qof/internal/text"
)

// ParseError reports a parse failure with the furthest position reached and
// what was expected there.
type ParseError struct {
	Doc      string
	Offset   int
	Expected []string
}

func (e *ParseError) Error() string {
	if len(e.Expected) == 0 {
		return fmt.Sprintf("grammar: %s: parse error at offset %d", e.Doc, e.Offset)
	}
	return fmt.Sprintf("grammar: %s: parse error at offset %d: expected %v",
		e.Doc, e.Offset, e.Expected)
}

// DepthError reports that the parser recursed maxDepth non-terminals deep
// without finishing — in practice a left-recursive grammar (A → A "x"),
// which a recursive-descent parser cannot terminate on. It belongs to the
// qerr.ErrBudgetExceeded family: deterministic, and the grammar stays
// usable for other symbols and inputs.
type DepthError struct {
	Doc    string
	Sym    string // non-terminal being entered when the limit tripped
	Offset int
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("grammar: %s: recursion depth %d exceeded parsing %q at offset %d (left recursion?): %v",
		e.Doc, maxDepth, e.Sym, e.Offset, qerr.ErrBudgetExceeded)
}

// Unwrap places the error in the budget family for errors.Is.
func (e *DepthError) Unwrap() error { return qerr.ErrBudgetExceeded }

// Parse parses the whole document as the root symbol, returning the parse
// tree. Trailing whitespace is permitted; any other trailing content is an
// error.
func (g *Grammar) Parse(doc *text.Document) (*Node, error) {
	return g.ParseAs(doc, g.root, 0, doc.Len())
}

// ParseAs parses the byte range [from, to) of the document as the given
// non-terminal; the region must be fully consumed up to trailing
// whitespace. The tree is the caller's: its nodes are cut from slabs the
// parse allocated, so holding any one *Node keeps its slab alive.
func (g *Grammar) ParseAs(doc *text.Document, sym string, from, to int) (*Node, error) {
	return g.parseWith(new(runner), doc, sym, from, to)
}

// ParseValue parses [from, to) as the non-terminal and returns the database
// image of the tree (BuildValue). It is the entry point for the
// partial-indexing engine, which parses only candidate regions
// (Section 6.2): the tree lives in a pooled runner's slabs and never leaves
// this function, so a candidate costs the allocations of its value and
// nothing else. The value references document text only.
func (g *Grammar) ParseValue(doc *text.Document, sym string, from, to int) (db.Value, error) {
	r := runnerPool.Get().(*runner)
	node, err := g.parseWith(r, doc, sym, from, to)
	var v db.Value
	if err == nil {
		v = BuildValue(node, doc.Content())
	}
	r.release()
	return v, err
}

var runnerPool = sync.Pool{New: func() any { return new(runner) }}

const (
	maxDepth = 10000

	// Slab chunks double from minChunk to maxChunk entries, so a candidate
	// region's tree takes one or two chunks and a whole document's a few
	// hundred.
	minChunk = 64
	maxChunk = 4096

	// A pooled runner keeps its last chunks for the next parse unless one
	// outgrew this, so an unusually large region does not pin its slabs
	// in the pool.
	maxPooled = 1024
)

func nextChunk(prev int) int {
	switch {
	case prev < minChunk:
		return minChunk
	case prev >= maxChunk:
		return maxChunk
	}
	return 2 * prev
}

// runner is the one parser: recursive descent over the compiled grammar
// with PEG ordered choice, a slab-allocated tree and a packrat memo.
//
// Tree. Nodes are handed out from chunked slabs; a chunk is never
// reallocated, so *Node pointers stay valid. While a production matches,
// its children collect on stack; on success they are sealed into an
// exact-size slice cut from the kids slab.
//
// Memo. A result can only be asked for twice if the parse backtracks, and
// it only backtracks out of a choice point: an attempt whose failure the
// parse survives — a non-last alternative, or a repetition element. So a
// result is recorded only while a choice point is open, and once none is
// open every entry before the current position is dead: nothing can return
// there. commit drops the table (a generation bump) as soon as all entries
// are dead. The table then holds one repetition element's worth of entries
// instead of one per non-terminal per position of the document, and the
// parse stays linear: an entry is never dropped while it can still be hit.
type runner struct {
	prog      *program
	skipSpace bool
	doc       string // document name, for errors
	src       string

	nodes []Node  // current node chunk; len is the used part
	kids  []*Node // current kids chunk
	stack []*Node // children of the productions being matched

	memo    []memoEnt // open addressing, len a power of two
	gen     uint32    // entries of other generations are empty slots
	live    int       // entries of this generation
	memoMax int       // greatest position among them
	choice  int       // open choice points

	furthest int
	expected []string
	depth    int
	err      error // sticky: set once by a depth overflow, aborts the parse
}

type memoEnt struct {
	pos  int
	end  int
	node *Node // nil: the non-terminal does not match at pos
	sym  int32
	gen  uint32
}

// parseWith runs one parse on r. The tree it returns lives in r's slabs; an
// error never references r (dedupe copies the expected list), so it may
// outlive a pooled runner.
func (g *Grammar) parseWith(r *runner, doc *text.Document, sym string, from, to int) (*Node, error) {
	prog, err := g.program()
	if err != nil {
		return nil, err
	}
	id, ok := prog.ids[sym]
	if !ok {
		return nil, fmt.Errorf("grammar: unknown non-terminal %q", sym)
	}
	if from < 0 || to > doc.Len() || from > to {
		return nil, fmt.Errorf("grammar: region [%d,%d) is outside %s (%d bytes)", from, to, doc.Name(), doc.Len())
	}
	r.prog, r.skipSpace = prog, g.SkipSpace
	r.doc, r.src = doc.Name(), doc.Content()[:to]
	r.clearMemo()
	if r.stack == nil {
		// A fresh runner: skip the first few doublings of append.
		r.stack = make([]*Node, 0, minChunk)
	}

	node, end, ok := r.parseNT(id, from)
	if r.err != nil {
		return nil, r.err
	}
	if ok {
		if rest := r.skip(end); rest == to {
			return node, nil
		}
		// Partial match: report the furthest progress for diagnosis.
		if end > r.furthest {
			r.furthest = end
			r.expected = append(r.expected[:0], "end of region")
		}
	}
	return nil, &ParseError{Doc: r.doc, Offset: r.furthest, Expected: dedupe(r.expected)}
}

// release scrubs the runner — it must not keep the document alive — and
// returns it to the pool with its slabs rewound for the next parse.
func (r *runner) release() {
	if cap(r.nodes) > maxPooled || cap(r.kids) > maxPooled || len(r.memo) > maxPooled {
		return
	}
	*r = runner{
		nodes:    r.nodes[:0],
		kids:     r.kids[:0],
		stack:    r.stack[:0],
		memo:     r.memo,
		gen:      r.gen,
		expected: r.expected[:0],
	}
	runnerPool.Put(r)
}

// skip advances past ASCII whitespace when the grammar says so.
func (r *runner) skip(pos int) int {
	if !r.skipSpace {
		return pos
	}
	for pos < len(r.src) {
		switch r.src[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

func (r *runner) fail(pos int, expected string) {
	if pos > r.furthest {
		r.furthest = pos
		r.expected = r.expected[:0]
	}
	if pos == r.furthest {
		r.expected = append(r.expected, expected)
	}
}

// parseNT parses the non-terminal at pos, trying its alternatives in order.
func (r *runner) parseNT(sym, pos int) (*Node, int, bool) {
	if r.err != nil {
		return nil, 0, false
	}
	if r.live > 0 {
		if e := r.lookup(sym, pos); e != nil {
			return e.node, e.end, e.node != nil
		}
	}
	if r.depth == maxDepth {
		r.err = &DepthError{Doc: r.doc, Sym: r.prog.names[sym], Offset: pos}
		return nil, 0, false
	}
	r.depth++
	var (
		node *Node
		end  int
		ok   bool
	)
	prods := r.prog.prods[sym]
	last := len(prods) - 1
	for i := range prods {
		if i < last {
			r.choice++
		}
		node, end, ok = r.parseProd(&prods[i], pos)
		if i < last {
			r.choice--
		}
		if ok {
			break
		}
	}
	r.depth--
	if r.choice > 0 {
		if r.err == nil {
			r.record(sym, pos, node, end)
		}
	} else if ok {
		r.commit(end)
	}
	return node, end, ok
}

// parseElem parses one repetition element: a choice point, because the
// repetition simply ends where an element fails.
func (r *runner) parseElem(sym, pos int) (*Node, int, bool) {
	r.choice++
	node, end, ok := r.parseNT(sym, pos)
	r.choice--
	if ok {
		r.commit(end)
	}
	return node, end, ok
}

// parseProd matches one production at pos.
func (r *runner) parseProd(p *cProd, pos int) (*Node, int, bool) {
	cur := r.skip(pos)
	start := cur
	base := len(r.stack)
	for i := range p.elems {
		e := &p.elems[i]
		cur = r.skip(cur)
		switch e.kind {
		case ElemLit:
			if !hasPrefixAt(r.src, cur, e.text) {
				r.fail(cur, e.expected)
				r.stack = r.stack[:base]
				return nil, 0, false
			}
			cur += len(e.text)
		case ElemTerm:
			n := e.match(r.src[cur:])
			if n <= 0 {
				r.fail(cur, e.expected)
				r.stack = r.stack[:base]
				return nil, 0, false
			}
			r.stack = append(r.stack, r.newNode(e.name, nil, cur, cur+n, nil))
			cur += n
		case ElemNT:
			kid, end, ok := r.parseNT(e.sym, cur)
			if !ok {
				r.stack = r.stack[:base]
				return nil, 0, false
			}
			r.stack = append(r.stack, kid)
			cur = end
		case ElemRep:
			kid, end, ok := r.parseElem(e.sym, cur)
			if !ok {
				break // zero repetitions
			}
			r.stack = append(r.stack, kid)
			cur = end
			for {
				after := r.skip(cur)
				if e.text != "" {
					if !hasPrefixAt(r.src, after, e.text) {
						break
					}
					after += len(e.text)
				}
				kid, end, ok := r.parseElem(e.sym, after)
				if !ok {
					break
				}
				r.stack = append(r.stack, kid)
				cur = end
			}
		}
	}
	return r.newNode(p.prod.LHS, p.prod, start, cur, r.seal(base)), cur, true
}

// newNode fills the next slot of the node slab; prod is nil for a terminal
// leaf. Every field is set, one by one — a pooled runner's slots hold the
// last parse's nodes, and storing a whole Node value costs a bulk
// write-barrier copy.
func (r *runner) newNode(sym string, prod *Production, start, end int, kids []*Node) *Node {
	if len(r.nodes) == cap(r.nodes) {
		r.nodes = make([]Node, 0, nextChunk(cap(r.nodes)))
	}
	r.nodes = r.nodes[:len(r.nodes)+1]
	n := &r.nodes[len(r.nodes)-1]
	n.Sym, n.Term, n.Start, n.End, n.Prod, n.Kids = sym, prod == nil, start, end, prod, kids
	return n
}

// seal moves the children collected above base off the stack into an
// exact-size slice of the kids slab (capacity clipped, so a caller's append
// cannot run into a neighbour's children).
func (r *runner) seal(base int) []*Node {
	n := len(r.stack) - base
	if n == 0 {
		return nil
	}
	if len(r.kids)+n > cap(r.kids) {
		r.kids = make([]*Node, 0, max(n, nextChunk(cap(r.kids))))
	}
	at := len(r.kids)
	r.kids = r.kids[:at+n]
	out := r.kids[at : at+n : at+n]
	copy(out, r.stack[base:])
	r.stack = r.stack[:base]
	return out
}

// commit notes that the parse has reached pos. If no choice point is open,
// nothing before pos can be asked for again, so once every entry lies
// before it the table is dropped.
func (r *runner) commit(pos int) {
	if r.choice == 0 && r.live > 0 && r.memoMax < pos {
		r.clearMemo()
	}
}

// clearMemo empties the table in O(1) by moving to a new generation.
func (r *runner) clearMemo() {
	r.live, r.memoMax = 0, -1
	r.gen++
	if r.gen == 0 { // wrapped: stale stamps could read as current
		clear(r.memo)
		r.gen = 1
	}
}

func memoSlot(sym, pos, mask int) int {
	h := uint64(pos)*0x9E3779B97F4A7C15 + uint64(sym)*0xC2B2AE3D27D4EB4F
	return int(h>>32) & mask
}

func (r *runner) lookup(sym, pos int) *memoEnt {
	mask := len(r.memo) - 1
	for i := memoSlot(sym, pos, mask); ; i = (i + 1) & mask {
		e := &r.memo[i]
		if e.gen != r.gen {
			return nil
		}
		if e.pos == pos && int(e.sym) == sym {
			return e
		}
	}
}

// record stores a result; the caller has just missed on (sym, pos), so the
// key is not in the table.
func (r *runner) record(sym, pos int, node *Node, end int) {
	if 2*(r.live+1) > len(r.memo) {
		r.growMemo()
	}
	mask := len(r.memo) - 1
	i := memoSlot(sym, pos, mask)
	for r.memo[i].gen == r.gen {
		i = (i + 1) & mask
	}
	r.memo[i] = memoEnt{pos: pos, end: end, node: node, sym: int32(sym), gen: r.gen}
	r.live++
	if pos > r.memoMax {
		r.memoMax = pos
	}
}

// growMemo doubles the table (load factor at most one half, so a probe
// always finds an empty slot) and re-seats the live entries.
func (r *runner) growMemo() {
	old := r.memo
	r.memo = make([]memoEnt, max(minChunk, 2*len(old)))
	mask := len(r.memo) - 1
	for _, e := range old {
		if e.gen != r.gen {
			continue
		}
		i := memoSlot(int(e.sym), e.pos, mask)
		for r.memo[i].gen == r.gen {
			i = (i + 1) & mask
		}
		r.memo[i] = e
	}
}

func hasPrefixAt(s string, pos int, prefix string) bool {
	return pos+len(prefix) <= len(s) && s[pos:pos+len(prefix)] == prefix
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
