package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"qof/internal/lint/analysis"
)

// PoolEscape tracks memory recycled through sync.Pool (the grammar's parse
// runners, the evaluator's contexts, the daemon's response buffers) and
// reports lifetime violations: pooled memory returned from an exported function, stored
// into a field of a non-pooled value, captured by a goroutine, or used
// after it was handed back with Put.
//
// Wrappers are inferred per package, to a fixed point: a function whose
// return value carries pooled memory is a getter (its callers' results are
// tainted in turn — but an *exported* getter is a violation, because
// pooled memory must not cross the package boundary); a function that
// passes a parameter, its receiver, or a receiver field to Put (or to
// another putter) is a putter, and calling it kills the argument's taint
// root. Taint flows through assignments, selectors, index/slice
// expressions, composite literals, append, and method calls on tainted
// receivers whose results can carry memory — not through ordinary call
// arguments, so passing a pooled context to a function does not taint
// that function's unrelated results.
var PoolEscape = &analysis.Analyzer{
	Name: "poolescape",
	Doc: "reports sync.Pool-backed memory escaping its function: returned " +
		"from exported functions, stored in fields, captured by goroutines, " +
		"or used after Put",
	Run: runPoolEscape,
}

// receiverParam is the pseudo-index identifying a method's receiver in a
// putter's put-parameter list.
const receiverParam = -1

type poolFacts struct {
	pass    *analysis.Pass
	getters map[types.Object]bool
	putters map[types.Object]map[int]bool // func -> put param indices
}

func runPoolEscape(pass *analysis.Pass) (any, error) {
	facts := &poolFacts{
		pass:    pass,
		getters: make(map[types.Object]bool),
		putters: make(map[types.Object]map[int]bool),
	}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Classification fixpoint: discovering one wrapper can reveal another
	// (release -> putBuf -> sync.Pool.Put). Monotone, so it terminates;
	// the bound only caps pathological chains.
	for i := 0; i < 8; i++ {
		changed := false
		for _, fd := range decls {
			if facts.analyzeFunc(fd, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range decls {
		facts.analyzeFunc(fd, true)
	}
	return nil, nil
}

// analyzeFunc walks one function in source order, tracking pooled-memory
// taint. In classification mode (report=false) it records getter/putter
// facts and reports whether anything new was learned; in report mode it
// emits diagnostics.
func (pf *poolFacts) analyzeFunc(fd *ast.FuncDecl, report bool) (changed bool) {
	info := pf.pass.TypesInfo
	fnObj := info.Defs[fd.Name]

	// Parameter objects, for putter classification: receiver is -1.
	paramIndex := make(map[types.Object]int)
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		paramIndex[info.Defs[fd.Recv.List[0].Names[0]]] = receiverParam
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			paramIndex[info.Defs[name]] = i
			i++
		}
	}

	taintRoot := make(map[types.Object]types.Object)
	dead := make(map[types.Object]token.Pos) // taint root -> position of its Put

	objOf := func(id *ast.Ident) types.Object {
		if o := info.Uses[id]; o != nil {
			return o
		}
		return info.Defs[id]
	}

	// rootObj resolves an expression to its base variable, independent of
	// taint (t.buf -> t), for put-target identification.
	var rootObj func(e ast.Expr) types.Object
	rootObj = func(e ast.Expr) types.Object {
		switch e := e.(type) {
		case *ast.Ident:
			return objOf(e)
		case *ast.SelectorExpr:
			return rootObj(e.X)
		case *ast.IndexExpr:
			return rootObj(e.X)
		case *ast.SliceExpr:
			return rootObj(e.X)
		case *ast.ParenExpr:
			return rootObj(e.X)
		case *ast.StarExpr:
			return rootObj(e.X)
		case *ast.TypeAssertExpr:
			return rootObj(e.X)
		case *ast.UnaryExpr:
			return rootObj(e.X)
		}
		return nil
	}

	// tainted reports whether the expression's value carries pooled
	// memory, and the root variable it is derived from (nil for a fresh
	// source such as a Get call).
	var tainted func(e ast.Expr) (types.Object, bool)
	tainted = func(e ast.Expr) (types.Object, bool) {
		switch e := e.(type) {
		case *ast.Ident:
			if root, ok := taintRoot[objOf(e)]; ok {
				return root, true
			}
		case *ast.SelectorExpr:
			if root, ok := tainted(e.X); ok && carriesMemory(info.Types[e].Type) {
				return root, true
			}
		case *ast.IndexExpr:
			if root, ok := tainted(e.X); ok && carriesMemory(info.Types[e].Type) {
				return root, true
			}
		case *ast.SliceExpr:
			return tainted(e.X)
		case *ast.ParenExpr:
			return tainted(e.X)
		case *ast.TypeAssertExpr:
			return tainted(e.X)
		case *ast.StarExpr:
			return tainted(e.X)
		case *ast.UnaryExpr:
			return tainted(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if root, ok := tainted(v); ok {
					return root, true
				}
			}
		case *ast.CallExpr:
			if isPoolGet(info, e) {
				return nil, true
			}
			switch fun := e.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					for _, a := range e.Args {
						if root, ok := tainted(a); ok {
							return root, true
						}
					}
					return nil, false
				}
				if pf.getters[objOf(fun)] {
					return nil, true
				}
			case *ast.SelectorExpr:
				if callee := selCallee(info, fun); callee != nil && pf.getters[callee] {
					return nil, true
				}
				// Method call on a tainted receiver: the result is a view
				// of pooled memory when its type can carry memory.
				if root, ok := tainted(fun.X); ok && carriesMemory(info.Types[e].Type) {
					return root, true
				}
			}
		}
		return nil, false
	}

	// killRoots processes a Put-like call: taint roots reached by the put
	// arguments die; in classification mode, putting a parameter marks
	// this function as a putter for it.
	killRoots := func(call *ast.CallExpr, args []ast.Expr) {
		for _, a := range args {
			root := rootObj(a)
			if root == nil {
				continue
			}
			if idx, isParam := paramIndex[root]; isParam && fnObj != nil {
				if pf.putters[fnObj] == nil {
					pf.putters[fnObj] = make(map[int]bool)
				}
				if !pf.putters[fnObj][idx] {
					pf.putters[fnObj][idx] = true
					changed = true
				}
			}
			if r, ok := taintRoot[root]; ok && r != nil {
				root = r
			}
			dead[root] = call.End()
		}
	}

	markGetter := func() {
		if fnObj != nil && !pf.getters[fnObj] {
			pf.getters[fnObj] = true
			changed = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			// Use of a variable whose pooled backing store was returned
			// to the pool earlier in the function.
			obj := objOf(n)
			putPos, isDead := dead[obj]
			if !isDead {
				if root, ok := taintRoot[obj]; ok {
					putPos, isDead = dead[root]
				}
			}
			if isDead && n.Pos() > putPos && report {
				pf.pass.Reportf(n.Pos(), "use of pooled memory %q after it was returned with Put", n.Name)
			}

		case *ast.AssignStmt:
			rhs := func(i int) ast.Expr {
				if len(n.Rhs) == len(n.Lhs) {
					return n.Rhs[i]
				}
				return n.Rhs[0]
			}
			for i, lhs := range n.Lhs {
				root, ok := tainted(rhs(i))
				switch lhs := lhs.(type) {
				case *ast.Ident:
					obj := objOf(lhs)
					if obj == nil {
						continue
					}
					if ok {
						if root == nil {
							root = obj
						}
						taintRoot[obj] = root
						delete(dead, obj)
					} else if n.Tok == token.ASSIGN {
						delete(taintRoot, obj)
					}
				case *ast.SelectorExpr:
					if _, baseTainted := tainted(lhs.X); ok && !baseTainted && report {
						pf.pass.Reportf(lhs.Pos(), "pooled memory stored in field %s of a non-pooled value (escapes the pool's lifetime)", lhs.Sel.Name)
					}
				case *ast.IndexExpr:
					// Storing pooled memory into a container makes the
					// container itself carry pooled memory.
					if baseRoot := rootObj(lhs.X); ok && baseRoot != nil {
						if _, baseTainted := taintRoot[baseRoot]; !baseTainted {
							if root == nil {
								root = baseRoot
							}
							taintRoot[baseRoot] = root
						}
					}
				}
			}

		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if _, ok := tainted(res); !ok {
					continue
				}
				if fd.Name.IsExported() {
					if report {
						pf.pass.Reportf(res.Pos(), "pooled memory returned from exported %s (leaves the package without an owner to Put it back)", fd.Name.Name)
					}
				} else {
					markGetter()
				}
				break
			}

		case *ast.GoStmt:
			if report {
				ast.Inspect(n.Call, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if _, isTainted := taintRoot[objOf(id)]; isTainted {
							pf.pass.Reportf(id.Pos(), "pooled memory %q captured by goroutine (may outlive the pool owner's Put)", id.Name)
							return false
						}
					}
					return true
				})
			}

		case *ast.CallExpr:
			if isPoolPut(info, n) {
				killRoots(n, n.Args)
				return true
			}
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if puts := pf.putters[objOf(fun)]; puts != nil {
					var args []ast.Expr
					for idx := range puts {
						if idx >= 0 && idx < len(n.Args) {
							args = append(args, n.Args[idx])
						}
					}
					killRoots(n, args)
				}
			case *ast.SelectorExpr:
				if callee := selCallee(info, fun); callee != nil {
					if puts := pf.putters[callee]; puts != nil {
						var args []ast.Expr
						for idx := range puts {
							if idx == receiverParam {
								args = append(args, fun.X)
							} else if idx < len(n.Args) {
								args = append(args, n.Args[idx])
							}
						}
						killRoots(n, args)
					}
				}
			}
		}
		return true
	})
	return changed
}

// selCallee resolves a selector call's callee object (method or
// package-qualified function).
func selCallee(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[sel]; ok {
		return s.Obj()
	}
	return info.Uses[sel.Sel]
}

// isPoolGet matches <sync.Pool value>.Get().
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	return isPoolMethod(info, call, "Get")
}

// isPoolPut matches <sync.Pool value>.Put(x).
func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	return isPoolMethod(info, call, "Put")
}

func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.Types[sel.X].Type
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// carriesMemory reports whether a value of type t can reference heap
// memory (so taint should propagate to it). Numerics, booleans and
// strings cannot alias a pooled buffer (string conversions copy).
func carriesMemory(t types.Type) bool {
	if t == nil {
		return true // missing type info: stay conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if carriesMemory(u.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return true
}
