// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves dataflow problems on them, using only the
// standard library. It is the flow-analysis substrate of the qoflint
// analyzers: a source-order scan cannot see that a lock is released on only
// one branch, or that a goroutine escapes its join on an early return. A
// CFG makes "on all paths" questions answerable.
//
// The graph is deliberately modest — basic blocks of statements with
// edges for if/for/range/switch/select/goto/break/continue/return — and
// stops at function-literal boundaries: a FuncLit appearing inside a
// statement is an opaque value here (its body runs at some other time);
// analyzers that care recurse into it with its own CFG.
//
// A DeferStmt is an ordinary node at its registration point, so a forward
// analysis knows from when a deferred effect is pending on a path.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal straight-line sequence of nodes with
// edges only at the end. Nodes holds statements and the control expressions
// (if/for/switch conditions, range operands) in execution order, so a
// transfer function sees every evaluated expression exactly once per pass
// through the block.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// Head marks loop heads (targets of a back edge); the dataflow solver
	// applies widening here.
	Head bool

	// unreachable marks blocks synthesized after a terminating statement
	// (return, break, goto ...) purely to hold any dead code that follows.
	unreachable bool
}

// Reachable reports whether the block is reachable from the entry.
func (b *Block) Reachable() bool { return !b.unreachable }

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // virtual: every return and the final fallthrough edge here
	Blocks []*Block
}

// New builds the CFG for a function body. A nil body yields a two-block
// graph (entry → exit), which keeps callers uniform over declared-only
// functions.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{}
	b.graph = &CFG{}
	b.graph.Entry = b.newBlock()
	b.graph.Exit = b.newBlock()
	cur := b.graph.Entry
	if body != nil {
		cur = b.stmtList(cur, body.List)
	}
	b.edge(cur, b.graph.Exit) // implicit return / fallthrough off the end
	b.resolveGotos()
	b.markLoopHeads()
	return b.graph
}

// builder carries the construction state: the growing graph, the stack of
// enclosing loop/switch targets for break and continue, and pending gotos.
type builder struct {
	graph *CFG

	// breakTargets / continueTargets are stacks; label is "" for the
	// innermost unlabeled form.
	breaks    []branchTarget
	continues []branchTarget

	labels map[string]*Block // label → block starting the labeled stmt
	gotos  []pendingGoto     // resolved after the walk (forward gotos)
}

type branchTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.graph.Blocks)}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// newDeadBlock starts a block for statements following a terminator; it has
// no predecessors and is marked unreachable (a later label can still make
// it live — resolveGotos and markLoopHeads clear the flag when edges
// arrive).
func (b *builder) newDeadBlock() *Block {
	blk := b.newBlock()
	blk.unreachable = true
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// stmtList threads the statements through cur, returning the block control
// falls out of.
func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		// The labeled statement starts its own block so goto/break/continue
		// with the label have a target.
		start := b.newBlock()
		b.edge(cur, start)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = start
		return b.stmtWithLabel(start, s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.graph.Exit)
		return b.newDeadBlock()

	case *ast.BranchStmt:
		return b.branch(cur, s)

	case *ast.IfStmt:
		return b.ifStmt(cur, s)

	case *ast.ForStmt:
		return b.forStmt(cur, s, "")

	case *ast.RangeStmt:
		return b.rangeStmt(cur, s, "")

	case *ast.SwitchStmt:
		return b.switchStmt(cur, s, "")

	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(cur, s, "")

	case *ast.SelectStmt:
		return b.selectStmt(cur, s, "")

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if isPanicCall(s.X) {
			b.edge(cur, b.graph.Exit)
			return b.newDeadBlock()
		}
		return cur

	default:
		// Assignments, declarations, go statements, sends, inc/dec, empty
		// statements: straight-line nodes.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// stmtWithLabel dispatches a labeled loop/switch so its break/continue
// targets register under the label.
func (b *builder) stmtWithLabel(cur *Block, s ast.Stmt, label string) *Block {
	switch s := s.(type) {
	case *ast.ForStmt:
		return b.forStmt(cur, s, label)
	case *ast.RangeStmt:
		return b.rangeStmt(cur, s, label)
	case *ast.SwitchStmt:
		return b.switchStmt(cur, s, label)
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(cur, s, label)
	case *ast.SelectStmt:
		return b.selectStmt(cur, s, label)
	default:
		return b.stmt(cur, s)
	}
}

func (b *builder) branch(cur *Block, s *ast.BranchStmt) *Block {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(b.breaks, label); t != nil {
			b.edge(cur, t)
		}
	case token.CONTINUE:
		if t := b.findTarget(b.continues, label); t != nil {
			b.edge(cur, t)
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: cur, label: label})
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt (the case body's fallthrough
		// edge); reaching here means a stray fallthrough — ignore.
		return cur
	}
	return b.newDeadBlock()
}

func (b *builder) findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) ifStmt(cur *Block, s *ast.IfStmt) *Block {
	if s.Init != nil {
		cur.Nodes = append(cur.Nodes, s.Init)
	}
	cur.Nodes = append(cur.Nodes, s.Cond)

	after := b.newBlock()
	then := b.newBlock()
	b.edge(cur, then) // Succs[0]: true edge
	thenEnd := b.stmtList(then, s.Body.List)
	b.edge(thenEnd, after)

	if s.Else != nil {
		els := b.newBlock()
		b.edge(cur, els) // Succs[1]: false edge
		elsEnd := b.stmt(els, s.Else)
		b.edge(elsEnd, after)
	} else {
		b.edge(cur, after) // Succs[1]: false edge falls through
	}
	return after
}

func (b *builder) forStmt(cur *Block, s *ast.ForStmt, label string) *Block {
	if s.Init != nil {
		cur.Nodes = append(cur.Nodes, s.Init)
	}
	head := b.newBlock()
	b.edge(cur, head)
	after := b.newDeadBlock() // live only if the loop can exit
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}

	// continue targets the post statement when present, else the head.
	contTarget := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		contTarget = post
	}

	b.breaks = append(b.breaks, branchTarget{label: label, block: after})
	b.continues = append(b.continues, branchTarget{label: label, block: contTarget})

	body := b.newBlock()
	b.edge(head, body) // Succs[0]: condition true (or unconditional)
	if s.Cond != nil {
		b.edge(head, after) // Succs[1]: condition false
	}
	bodyEnd := b.stmtList(body, s.Body.List)
	b.edge(bodyEnd, contTarget)

	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	return after
}

func (b *builder) rangeStmt(cur *Block, s *ast.RangeStmt, label string) *Block {
	head := b.newBlock()
	// The range statement itself is the head's node: it evaluates the
	// operand and assigns the iteration variables each trip.
	head.Nodes = append(head.Nodes, s)
	b.edge(cur, head)
	after := b.newBlock()

	b.breaks = append(b.breaks, branchTarget{label: label, block: after})
	b.continues = append(b.continues, branchTarget{label: label, block: head})

	body := b.newBlock()
	b.edge(head, body)  // Succs[0]: next element
	b.edge(head, after) // Succs[1]: exhausted
	bodyEnd := b.stmtList(body, s.Body.List)
	b.edge(bodyEnd, head)

	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	return after
}

func (b *builder) switchStmt(cur *Block, s *ast.SwitchStmt, label string) *Block {
	if s.Init != nil {
		cur.Nodes = append(cur.Nodes, s.Init)
	}
	if s.Tag != nil {
		cur.Nodes = append(cur.Nodes, s.Tag)
	}
	return b.caseClauses(cur, s.Body.List, label, func(clause *ast.CaseClause, blk *Block) {
		for _, e := range clause.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
}

func (b *builder) typeSwitchStmt(cur *Block, s *ast.TypeSwitchStmt, label string) *Block {
	if s.Init != nil {
		cur.Nodes = append(cur.Nodes, s.Init)
	}
	cur.Nodes = append(cur.Nodes, s.Assign)
	return b.caseClauses(cur, s.Body.List, label, nil)
}

// caseClauses builds the dispatch structure shared by expression and type
// switches: an edge from cur to every case block, fallthrough edges between
// consecutive case bodies, and a default edge to after when no default
// clause exists.
func (b *builder) caseClauses(cur *Block, clauses []ast.Stmt, label string, noteExprs func(*ast.CaseClause, *Block)) *Block {
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: after})

	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(cur, blocks[i])
		if cc, ok := c.(*ast.CaseClause); ok {
			if cc.List == nil {
				hasDefault = true
			}
			if noteExprs != nil {
				noteExprs(cc, blocks[i])
			}
		}
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		body := cc.Body
		ft := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				body, ft = body[:n-1], true
			}
		}
		end := b.stmtList(blocks[i], body)
		if ft && i+1 < len(blocks) {
			b.edge(end, blocks[i+1])
		} else {
			b.edge(end, after)
		}
	}
	if !hasDefault {
		b.edge(cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func (b *builder) selectStmt(cur *Block, s *ast.SelectStmt, label string) *Block {
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: after})
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(cur, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		end := b.stmtList(blk, cc.Body)
		b.edge(end, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok {
			b.edge(g.from, t)
		}
	}
}

// markLoopHeads finds targets of back edges with a DFS: an edge u→v with v
// still on the DFS stack closes a cycle, making v a loop head. goto-formed
// loops are caught the same way as structured ones. The same walk settles
// reachability: blocks the DFS never visits are dead (the builder's
// incremental flags are provisional — a goto resolved late can revive a
// block created after a terminator).
func (b *builder) markLoopHeads() {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(b.graph.Blocks))
	var dfs func(*Block)
	dfs = func(blk *Block) {
		color[blk.Index] = grey
		for _, s := range blk.Succs {
			switch color[s.Index] {
			case white:
				dfs(s)
			case grey:
				s.Head = true
			}
		}
		color[blk.Index] = black
	}
	dfs(b.graph.Entry)
	for _, blk := range b.graph.Blocks {
		blk.unreachable = color[blk.Index] == white
	}
}

// Inspect walks one block node like ast.Inspect, visiting only what the
// block actually evaluates. The one composite node a block can hold is a
// *ast.RangeStmt (a range loop's head evaluates the operand and assigns the
// iteration variables); its body lives in other blocks, so Inspect stops at
// the operand and the iteration variables instead of descending into it.
func Inspect(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if r.Key != nil {
			ast.Inspect(r.Key, fn)
		}
		if r.Value != nil {
			ast.Inspect(r.Value, fn)
		}
		ast.Inspect(r.X, fn)
		return
	}
	ast.Inspect(n, fn)
}

// isPanicCall reports whether e is a call of the builtin panic. The builder
// treats it as function exit; analyses that distinguish panicking exits
// from returns can inspect the node.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// String renders the graph for tests and debugging: one line per block with
// its successor indices.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d", blk.Index)
		switch blk {
		case g.Entry:
			sb.WriteString("(entry)")
		case g.Exit:
			sb.WriteString("(exit)")
		}
		if blk.Head {
			sb.WriteString("(head)")
		}
		if blk.unreachable {
			sb.WriteString("(dead)")
		}
		fmt.Fprintf(&sb, " [%d nodes] ->", len(blk.Nodes))
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
