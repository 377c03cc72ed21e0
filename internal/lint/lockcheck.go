package lint

import (
	"go/ast"
	"go/types"
	"regexp"

	"qof/internal/lint/analysis"
	"qof/internal/lint/cfg"
)

// LockCheck enforces the "// guarded by <mu>" annotation convention: a
// struct field carrying the annotation may only be read or written while
// the named sibling mutex of the same value is held.
//
// The analysis is a path-sensitive must-hold lockset over the function's
// control-flow graph: Lock/RLock raise and Unlock/RUnlock lower a
// per-(owner, mutex) counter, states merge at joins by pointwise minimum
// (the mutex is held after a join only if it is held on every incoming
// path), and a deferred unlock leaves the counter raised until the
// function returns. A lock taken on only one branch therefore does not
// cover an access after the join — the source-order scan this replaces
// missed exactly that case. A function literal is analyzed with the lockset
// at its creation point, unless it escapes — returned, started with go, or
// assigned to a field, an element or a variable declared outside the
// function — in which case it may run after the creator's unlock and starts
// from the empty lockset.
var LockCheck = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "reports accesses to '// guarded by mu' annotated struct fields " +
		"outside the annotated mutex",
	Requires: []*analysis.Analyzer{cfg.FactAnalyzer},
	Run:      runLockCheck,
}

var guardedRx = regexp.MustCompile(`guarded by (\w+)`)

// guardInfo describes one annotated field: the mutex field name that must
// be held, resolved per struct.
type guardInfo struct {
	mutex string // sibling field name of the mutex
	field string // annotated field name, for messages
}

func runLockCheck(pass *analysis.Pass) (any, error) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil, nil
	}
	cfgs := pass.ResultOf[cfg.FactAnalyzer].(*cfg.PackageCFGs)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBody(pass, cfgs, fd.Body, lockState{}, guards)
		}
	}
	return nil, nil
}

// collectGuards finds annotated fields and maps their types.Var objects to
// the guard description. An annotation naming a non-existent sibling field
// is itself reported.
func collectGuards(pass *analysis.Pass) map[types.Object]guardInfo {
	guards := make(map[types.Object]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				text := ""
				if fld.Doc != nil {
					text += fld.Doc.Text()
				}
				if fld.Comment != nil {
					text += fld.Comment.Text()
				}
				m := guardedRx.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				mutex := m[1]
				if !fieldNames[mutex] {
					pass.Reportf(fld.Pos(), "guarded-by annotation names %q, which is not a field of this struct", mutex)
					continue
				}
				for _, name := range fld.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guardInfo{mutex: mutex, field: name.Name}
					}
				}
			}
			return true
		})
	}
	return guards
}

// lockKey identifies one held mutex: the printed owner expression plus the
// mutex field name, so "rc.mu" and "other.mu" are distinct locks.
type lockKey struct {
	owner string
	mutex string
}

var lockMethods = map[string]int{"Lock": +1, "RLock": +1, "Unlock": -1, "RUnlock": -1}

// lockState maps each held mutex to its hold depth. A nil map is the
// dataflow Bottom ("no path has reached this block"); zero entries are
// normalized away so Equal can compare by length.
type lockState map[lockKey]int

// lockFlow is the must-hold lockset problem: forward, pointwise-minimum
// merge (held after a join only if held on every path in).
type lockFlow struct {
	pass  *analysis.Pass
	entry lockState
}

func (lockFlow) Bottom() lockState { return nil }

func (lf lockFlow) Boundary() lockState {
	out := make(lockState, len(lf.entry))
	for k, v := range lf.entry {
		out[k] = v
	}
	return out
}

func (lf lockFlow) Transfer(b *cfg.Block, s lockState) lockState {
	if s == nil {
		return nil
	}
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	for _, n := range b.Nodes {
		applyLockOps(lf.pass, n, out)
	}
	return out
}

func (lockFlow) Merge(a, b lockState) lockState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(lockState)
	keep := func(k lockKey, v, w int) {
		if w < v {
			v = w
		}
		if v != 0 {
			out[k] = v
		}
	}
	for k, v := range a {
		keep(k, v, b[k])
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			keep(k, 0, v)
		}
	}
	return out
}

func (lockFlow) Equal(a, b lockState) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Widen stops the downward spiral of an unlock inside a loop (the counter
// would otherwise decrease without bound): negative counters are clamped
// away, which is semantically neutral — any value <= 0 means "not held".
func (lockFlow) Widen(_, merged lockState) lockState {
	out := make(lockState, len(merged))
	for k, v := range merged {
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// applyLockOps folds one block node's lock operations into held: Lock/RLock
// raise, Unlock/RUnlock lower, a deferred unlock is skipped (it keeps the
// lock held until return), and function literals are opaque (their bodies
// run at some other time and are analyzed separately).
func applyLockOps(pass *analysis.Pass, node ast.Node, held lockState) {
	cfg.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if _, delta, ok := lockOp(pass, n.Call); ok && delta < 0 {
				return false
			}
		case *ast.CallExpr:
			if key, delta, ok := lockOp(pass, n); ok {
				if held[key] += delta; held[key] == 0 {
					delete(held, key)
				}
				return false
			}
		}
		return true
	})
}

// checkLockBody solves the must-hold problem on body's CFG (entered with
// the given lockset) and replays each reachable block to report guarded
// accesses made while the matching mutex is not held on every path. A
// function literal encountered during replay is checked recursively with a
// snapshot of the lockset at its creation point, or with the empty lockset
// if it escapes.
func checkLockBody(pass *analysis.Pass, cfgs *cfg.PackageCFGs, body *ast.BlockStmt, entry lockState, guards map[types.Object]guardInfo) {
	g := cfgs.Of(body)
	flow := lockFlow{pass: pass, entry: entry}
	res := cfg.Solve[lockState](g, flow)
	escapes := escapingLits(pass, body)
	for _, b := range g.Blocks {
		in := res.In[b]
		if in == nil || !b.Reachable() {
			continue
		}
		held := make(lockState, len(in))
		for k, v := range in {
			held[k] = v
		}
		for _, node := range b.Nodes {
			replayNode(pass, cfgs, node, held, guards, escapes)
		}
	}
}

// escapingLits returns the function literals of body (not those nested in
// other literals) that may run after body's locks are released: returned,
// started with go, or assigned to a field, an element, or a variable
// declared outside body.
func escapingLits(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	escapes := make(map[*ast.FuncLit]bool)
	mark := func(e ast.Expr) {
		if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
			escapes[lit] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				mark(r)
			}
		case *ast.GoStmt:
			mark(n.Call.Fun)
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					obj := objOf(pass, id)
					if obj == nil || body.Pos() <= obj.Pos() && obj.Pos() < body.End() {
						continue // blank, or a local of body
					}
				}
				mark(n.Rhs[i])
			}
		}
		return true
	})
	return escapes
}

// replayNode walks one block node with the current lockset, reporting
// guarded accesses and applying lock operations in evaluation order.
func replayNode(pass *analysis.Pass, cfgs *cfg.PackageCFGs, node ast.Node, held lockState, guards map[types.Object]guardInfo, escapes map[*ast.FuncLit]bool) {
	cfg.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			snap := make(lockState, len(held))
			if !escapes[n] {
				for k, v := range held {
					snap[k] = v
				}
			}
			checkLockBody(pass, cfgs, n.Body, snap, guards)
			return false
		case *ast.DeferStmt:
			if _, delta, ok := lockOp(pass, n.Call); ok && delta < 0 {
				return false
			}
		case *ast.CallExpr:
			if key, delta, ok := lockOp(pass, n); ok {
				if held[key] += delta; held[key] == 0 {
					delete(held, key)
				}
				return false // rc.mu in rc.mu.Lock() is not a guarded access
			}
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok {
				return true
			}
			g, guarded := guards[sel.Obj()]
			if !guarded {
				return true
			}
			owner := types.ExprString(n.X)
			if held[lockKey{owner: owner, mutex: g.mutex}] <= 0 {
				pass.Reportf(n.Sel.Pos(), "access to %s.%s without holding %s.%s (field is guarded by %s)",
					owner, g.field, owner, g.mutex, g.mutex)
			}
		}
		return true
	})
}

// lockOp recognizes <owner>.<mutex>.Lock/RLock/Unlock/RUnlock() calls on a
// sync.Mutex or sync.RWMutex value and returns the lock key and the held
// delta (+1 lock, -1 unlock).
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (lockKey, int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	delta, ok := lockMethods[sel.Sel.Name]
	if !ok {
		return lockKey{}, 0, false
	}
	recv, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	if !isSyncLocker(pass.TypesInfo.Types[recv].Type) {
		return lockKey{}, 0, false
	}
	return lockKey{owner: types.ExprString(recv.X), mutex: recv.Sel.Name}, delta, true
}

// isSyncLocker reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
