package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"qof/internal/lint/analysis"
	"qof/internal/lint/cfg"
)

// GoRecover enforces the resilience era's goroutine discipline in the
// engine and serve packages, where a panic on a worker goroutine would
// crash the whole daemon instead of failing one query:
//
//  1. Panic isolation — a goroutine must not run code that can panic
//     without a recover guard between the panic and the runtime. A
//     goroutine complies if its body installs "defer func() { recover()
//     ... }" itself, if every risky call it makes resolves (recursively)
//     to a function or closure that installs one, or if it makes no risky
//     calls at all (pure join/close helpers). Risky means project code —
//     same-package calls, qof cross-package calls, interface methods,
//     function values; the standard library and builtins are trusted.
//
//  2. Structured join — every path from the go statement to the enclosing
//     function's return must pass a join operation (WaitGroup.Wait, a
//     channel receive, or ranging over a channel), so no goroutine
//     outlives the call that spawned it.
var GoRecover = &analysis.Analyzer{
	Name: "gorecover",
	Doc: "reports goroutines in engine/serve that can panic without a " +
		"recover guard or that are not joined on every return path",
	Requires: []*analysis.Analyzer{cfg.FactAnalyzer},
	Run:      runGoRecover,
}

func runGoRecover(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if !strings.HasSuffix(path, "internal/engine") && !strings.HasSuffix(path, "internal/serve") &&
		!strings.HasSuffix(path, "gorecover") {
		return nil, nil
	}
	cfgs := pass.ResultOf[cfg.FactAnalyzer].(*cfg.PackageCFGs)
	r := &recoverChecker{
		pass:     pass,
		cfgs:     cfgs,
		decls:    make(map[types.Object]*ast.FuncDecl),
		closures: make(map[types.Object]*ast.FuncLit),
		safe:     make(map[ast.Node]int),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					r.decls[obj] = fd
				}
			}
		}
		// Closures bound to a single-assignment local ("process := func...")
		// are resolvable call targets for the delegation rule.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						r.bindClosure(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						r.bindClosure(name, n.Values[i])
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					r.checkGoStmt(fd, gs)
				}
				return true
			})
		}
	}
	return nil, nil
}

type recoverChecker struct {
	pass     *analysis.Pass
	cfgs     *cfg.PackageCFGs
	decls    map[types.Object]*ast.FuncDecl
	closures map[types.Object]*ast.FuncLit
	safe     map[ast.Node]int // FuncDecl/FuncLit body → safety memo
}

const (
	safetyUnknown = 0 // not yet computed
	safetyInWork  = 1 // on the recursion stack: optimistic (cycles are safe)
	safetySafe    = 2
	safetyUnsafe  = 3
)

func (r *recoverChecker) bindClosure(lhs, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	lit, ok := rhs.(*ast.FuncLit)
	if !ok {
		return
	}
	if obj := objOf(r.pass, id); obj != nil {
		if _, dup := r.closures[obj]; dup {
			// Rebound variable: ambiguous target. The nil entry poisons the
			// binding so later assignments cannot resurrect it.
			r.closures[obj] = nil
			return
		}
		r.closures[obj] = lit
	}
}

func (r *recoverChecker) checkGoStmt(enclosing *ast.FuncDecl, gs *ast.GoStmt) {
	// Rule 1: panic isolation.
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		if !r.bodySafe(lit.Body) {
			r.pass.Reportf(gs.Pos(), "goroutine can panic without a recover guard (install defer recover or call only guarded functions)")
		}
	} else if !r.callSafe(gs.Call) {
		r.pass.Reportf(gs.Pos(), "goroutine can panic without a recover guard (install defer recover or call only guarded functions)")
	}

	// Rule 2: structured join on every return path.
	if !r.joinedOnAllPaths(enclosing.Body, gs) {
		r.pass.Reportf(gs.Pos(), "goroutine is not joined on every return path (join via WaitGroup.Wait, channel receive, or ranging over a channel)")
	}
}

// bodySafe reports whether the function body is panic-isolated: it installs
// its own recover guard, or every risky call it makes targets a safe
// function.
func (r *recoverChecker) bodySafe(body *ast.BlockStmt) bool {
	switch r.safe[body] {
	case safetySafe, safetyInWork:
		return true
	case safetyUnsafe:
		return false
	}
	r.safe[body] = safetyInWork
	ok := r.computeBodySafe(body)
	if ok {
		r.safe[body] = safetySafe
	} else {
		r.safe[body] = safetyUnsafe
	}
	return ok
}

func (r *recoverChecker) computeBodySafe(body *ast.BlockStmt) bool {
	if hasRecoverGuard(body) {
		return true
	}
	safe := true
	ast.Inspect(body, func(n ast.Node) bool {
		if !safe {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs at some other time; checked where it is launched or called
		case *ast.CallExpr:
			// An explicit panic with no guard above it is exactly the bug.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				safe = false
				return false
			}
			if r.riskyCall(n) && !r.callSafe(n) {
				safe = false
				return false
			}
		}
		return true
	})
	return safe
}

// hasRecoverGuard reports whether the body directly installs
// "defer func() { ... recover() ... }()".
func hasRecoverGuard(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		ds, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		lit, ok := ds.Call.Fun.(*ast.FuncLit)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// riskyCall reports whether the call targets project code that could
// panic. Builtins, conversions, and standard-library callees are trusted.
func (r *recoverChecker) riskyCall(call *ast.CallExpr) bool {
	switch obj := r.calleeObj(call).(type) {
	case nil:
		// Conversion or unresolved: a conversion has a type as its Fun.
		if tv, ok := r.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return false
		}
		return true // function value we could not resolve
	case *types.Builtin:
		return false
	case *types.TypeName:
		return false // conversion, e.g. int(x)
	case *types.Func:
		return r.projectObj(obj)
	case *types.Var:
		return true // function-typed variable or parameter
	}
	return true
}

// projectObj reports whether the object belongs to this project (the
// package under analysis or another qof package) rather than the standard
// library.
func (r *recoverChecker) projectObj(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	return pkg == r.pass.Pkg || pkg.Path() == "qof" || strings.HasPrefix(pkg.Path(), "qof/") ||
		strings.Contains(pkg.Path(), "testdata")
}

// callSafe reports whether the call's target is known to be panic-safe:
// resolvable to a same-package declaration or local closure whose body is
// safe. Unresolvable risky targets (interface methods, cross-package
// calls, opaque function values) are unsafe — the guard must sit in this
// package, where the goroutine is.
func (r *recoverChecker) callSafe(call *ast.CallExpr) bool {
	if !r.riskyCall(call) {
		return true
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return r.bodySafe(lit.Body)
	}
	obj := r.calleeObj(call)
	if obj == nil {
		return false
	}
	if fd, ok := r.decls[obj]; ok && fd.Body != nil {
		return r.bodySafe(fd.Body)
	}
	if lit, ok := r.closures[obj]; ok && lit != nil {
		return r.bodySafe(lit.Body)
	}
	return false
}

func (r *recoverChecker) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return objOf(r.pass, fun)
	case *ast.SelectorExpr:
		if sel, ok := r.pass.TypesInfo.Selections[fun]; ok {
			return sel.Obj()
		}
		return objOf(r.pass, fun.Sel) // package-qualified call
	}
	return nil
}

// joinedOnAllPaths reports whether every path from the go statement to the
// enclosing function's exit passes a join operation.
func (r *recoverChecker) joinedOnAllPaths(body *ast.BlockStmt, gs *ast.GoStmt) bool {
	g := r.cfgs.Of(body)
	var home *cfg.Block
	idx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == gs {
				home, idx = b, i
				break
			}
		}
		if home != nil {
			break
		}
	}
	if home == nil {
		// The go statement sits inside a nested function literal; its CFG
		// home is that literal's graph. Find it there.
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				inner := false
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if m == gs {
						inner = true
					}
					return !inner
				})
				if inner {
					found = r.joinedOnAllPaths(lit.Body, gs)
					return false
				}
			}
			return true
		})
		return found
	}
	// Joins later in the same block cover every path through it.
	for _, n := range home.Nodes[idx+1:] {
		if r.nodeJoins(n) {
			return true
		}
	}
	// Otherwise: no path may reach Exit without passing a joining block.
	seen := map[*cfg.Block]bool{home: true}
	queue := []*cfg.Block{home}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, s := range b.Succs {
			if seen[s] {
				continue
			}
			if s == g.Exit {
				return false
			}
			if r.blockJoins(s) {
				continue
			}
			seen[s] = true
			queue = append(queue, s)
		}
	}
	return true
}

func (r *recoverChecker) blockJoins(b *cfg.Block) bool {
	for _, n := range b.Nodes {
		if r.nodeJoins(n) {
			return true
		}
	}
	return false
}

// nodeJoins recognizes join operations: WaitGroup.Wait (any method named
// Wait), a channel receive, or ranging over a channel.
func (r *recoverChecker) nodeJoins(node ast.Node) bool {
	if rs, ok := node.(*ast.RangeStmt); ok {
		if t := r.pass.TypesInfo.Types[rs.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return true
			}
		}
	}
	joins := false
	cfg.Inspect(node, func(n ast.Node) bool {
		if joins {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joins = true
				return false
			}
		case *ast.CallExpr:
			if calleeName(n) == "Wait" {
				joins = true
				return false
			}
		}
		return true
	})
	return joins
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
