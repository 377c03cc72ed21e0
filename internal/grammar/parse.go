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
	return g.parseWith(new(runner), doc, g.root, 0, doc.Len(), everything)
}

// ParseAs parses the byte range [from, to) of the document as the given
// non-terminal; the region must be fully consumed up to trailing
// whitespace. The bounds are a region's endpoints. The tree is the
// caller's: its nodes are cut from slabs the parse allocated, so holding
// any one *Node keeps its slab alive.
func (g *Grammar) ParseAs(doc *text.Document, sym string, from, to int32) (*Node, error) {
	return g.parseWith(new(runner), doc, sym, int(from), int(to), everything)
}

// ParseValue parses [from, to) as the non-terminal and returns the part of
// its database image that reads names (nil: all of it, BuildValue's). It is
// the entry point for the partial-indexing engine, which parses only
// candidate regions (Section 6.2) and of those builds only what the query
// navigates: productions off the read set are recognised, nothing more, so
// errors are those of a full parse. The tree lives in a pooled runner's
// slabs and never leaves this function; a candidate costs the allocations
// of its value and nothing else. The value references document text only.
func (g *Grammar) ParseValue(doc *text.Document, sym string, from, to int, reads *ReadSet) (db.Value, error) {
	if reads == nil {
		reads = everything
	} else if reads.nt != sym {
		return nil, fmt.Errorf("grammar: read set compiled for %q used to parse %q", reads.nt, sym)
	}
	r := runnerPool.Get().(*runner)
	node, err := g.parseWith(r, doc, sym, from, to, reads)
	var v db.Value
	if err == nil {
		v = buildValue(node, doc.Content(), reads)
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
// Reads. Every descent carries its need, a node of the read set: below a
// nil need the runner is quiet — it advances and reports failures exactly
// as otherwise, but makes no Node, pushes nothing and seals nothing. Under
// a need that names attributes only those children are kept and terminal
// leaves are not; under a whole-subtree need everything is.
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
// An entry remembers the need it was parsed under. "Does not match" holds
// under any need and a quiet lookup takes any match, but a lookup that must
// hand back a node is served only by an entry parsed under the same need;
// otherwise the non-terminal is parsed again and the entry overwritten.
//
// Flat symbols. A flat symbol (program.flat) entered quietly is recognised
// by recognise: one pass over its production with nested flat symbols
// called, and no memo, depth count, choice point or failure report. Its
// result is the one parseNT would return — one production and no recursion
// leave nothing to choose or remember — except that it reports no error. So
// a parse that fails is run again with general set, every symbol through
// parseNT, and its error is that run's.
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
	rebuilt  int   // matches parsed again because their entry was built for another need
	err      error // sticky: set once by a depth overflow, aborts the parse
	general  bool  // no flat symbol is recognised by recognise
}

type memoEnt struct {
	pos  int
	end  int      // noMatch: the non-terminal does not match at pos
	node *Node    // nil when parsed quietly
	need *ReadSet // what node was built for; nil: matched, nothing built
	sym  int32
	gen  uint32
}

const noMatch = -1

// parseWith runs one parse on r. The tree it returns lives in r's slabs; an
// error never references r (dedupe copies the expected list), so it may
// outlive a pooled runner.
func (g *Grammar) parseWith(r *runner, doc *text.Document, sym string, from, to int, need *ReadSet) (*Node, error) {
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
	if r.stack == nil {
		// A fresh runner: skip the first few doublings of append.
		r.stack = make([]*Node, 0, minChunk)
	}
	node, err := r.run(id, from, to, need)
	if err != nil && !r.general {
		// recognise reports no failures, so the error is the general
		// runner's. That also drops a DepthError the general runner would
		// not meet: one an entry recognise left unrecorded would spare.
		r.general = true
		r.furthest, r.expected, r.err, r.rebuilt = 0, r.expected[:0], nil, 0
		node, err = r.run(id, from, to, need)
	}
	return node, err
}

// run parses [from, to) as the symbol once.
func (r *runner) run(sym, from, to int, need *ReadSet) (*Node, error) {
	r.clearMemo()
	node, end, ok := r.parseNT(sym, from, need)
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
		// Most calls stand on a byte that is not a space: one compare.
		if c := r.src[pos]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return pos
		}
		pos++
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

// parseNT parses the non-terminal at pos under need, trying its
// alternatives in order.
func (r *runner) parseNT(sym, pos int, need *ReadSet) (*Node, int, bool) {
	if r.err != nil {
		return nil, 0, false
	}
	// A flat symbol is recognised only where parseNT could not overflow the
	// depth inside it: its deepest non-terminal would be entered at depth
	// r.depth+h-1.
	if h := r.prog.flat[sym]; need == nil && h > 0 && r.depth+h <= maxDepth && !r.general {
		end := r.recognise(sym, pos)
		return nil, end, end >= 0
	}
	if r.live > 0 {
		if e := r.lookup(sym, pos); e != nil {
			if e.end == noMatch {
				return nil, 0, false
			}
			if need == nil || e.need == need {
				return e.node, e.end, true
			}
			r.rebuilt++
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
		node, end, ok = r.parseProd(&prods[i], pos, need)
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
			if !ok {
				end = noMatch
			}
			r.record(sym, pos, node, end, need)
		}
	} else if ok {
		r.commit(end)
	}
	return node, end, ok
}

// parseElem parses one repetition element: a choice point, because the
// repetition simply ends where an element fails.
func (r *runner) parseElem(sym, pos int, need *ReadSet) (*Node, int, bool) {
	r.choice++
	node, end, ok := r.parseNT(sym, pos, need)
	r.choice--
	if ok {
		r.commit(end)
	}
	return node, end, ok
}

// parseProd matches one production at pos. It returns a node only under a
// need; a quiet match returns the end alone.
func (r *runner) parseProd(p *cProd, pos int, need *ReadSet) (*Node, int, bool) {
	cur := r.skip(pos)
	start := cur
	base := len(r.stack)
	leaves := need != nil && need.all
	nts := false
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
			if leaves {
				r.stack = append(r.stack, r.newNode(e.name, nil, cur, cur+n, nil))
			}
			cur += n
		case ElemNT:
			sub := need.child(e.sym)
			kid, end, ok := r.parseNT(e.sym, cur, sub)
			if !ok {
				r.stack = r.stack[:base]
				return nil, 0, false
			}
			if sub != nil {
				r.stack = append(r.stack, kid)
			}
			cur, nts = end, true
		case ElemRep:
			sub := need.child(e.sym)
			kid, end, ok := r.parseElem(e.sym, cur, sub)
			if !ok {
				break // zero repetitions
			}
			nts = true
			if sub != nil {
				r.stack = append(r.stack, kid)
			}
			cur = end
			for {
				after := r.skip(cur)
				if e.text != "" {
					if !hasPrefixAt(r.src, after, e.text) {
						break
					}
					after += len(e.text)
				}
				kid, end, ok := r.parseElem(e.sym, after, sub)
				if !ok {
					break
				}
				if sub != nil {
					r.stack = append(r.stack, kid)
				}
				cur = end
			}
		}
	}
	if need == nil {
		return nil, cur, true
	}
	n := r.newNode(p.prod.LHS, p.prod, start, cur, r.seal(base))
	n.nts = nts
	return n, cur, true
}

// recognise matches the flat symbol at pos as a quiet parseProd of its one
// production would, and returns the end of the match or -1.
func (r *runner) recognise(sym, pos int) int {
	p := &r.prog.prods[sym][0]
	cur := r.skip(pos)
	for i := range p.elems {
		e := &p.elems[i]
		cur = r.skip(cur)
		switch e.kind {
		case ElemLit:
			if !hasPrefixAt(r.src, cur, e.text) {
				return -1
			}
			cur += len(e.text)
		case ElemTerm:
			n := e.match(r.src[cur:])
			if n <= 0 {
				return -1
			}
			cur += n
		case ElemNT:
			if cur = r.recognise(e.sym, cur); cur < 0 {
				return -1
			}
		case ElemRep:
			for at := cur; ; {
				end := r.recognise(e.sym, at)
				if end < 0 {
					break
				}
				cur, at = end, r.skip(end)
				if e.text != "" {
					if !hasPrefixAt(r.src, at, e.text) {
						break
					}
					at += len(e.text)
				}
			}
		}
	}
	return cur
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
	n.Sym, n.Term, n.Start, n.End, n.Prod, n.Kids, n.nts = sym, prod == nil, start, end, prod, kids, false
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

// record stores a result, over the entry the key already has when the
// caller parsed again for a need that entry could not serve.
func (r *runner) record(sym, pos int, node *Node, end int, need *ReadSet) {
	if 2*(r.live+1) > len(r.memo) {
		r.growMemo()
	}
	mask := len(r.memo) - 1
	i := memoSlot(sym, pos, mask)
	for r.memo[i].gen == r.gen {
		if e := &r.memo[i]; e.pos == pos && int(e.sym) == sym {
			e.end, e.node, e.need = end, node, need
			return
		}
		i = (i + 1) & mask
	}
	// Field by field, like newNode: the entry holds pointers.
	e := &r.memo[i]
	e.pos, e.end, e.node, e.need, e.sym, e.gen = pos, end, node, need, int32(sym), r.gen
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
	if len(prefix) == 1 { // a delimiter: no call into memequal
		return pos < len(s) && s[pos] == prefix[0]
	}
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
