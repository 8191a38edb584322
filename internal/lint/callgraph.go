package lint

import (
	"go/ast"
	"go/types"
)

// callGraph is the package-local static call graph: which declared
// functions of a package call which other declared functions of the
// same package. Calls through interfaces or function values are not
// resolved (the simulator's cross-component calls all cross package
// boundaries anyway); the graph exists to answer "is this statement
// reachable from a hot-path or tick root inside this package", and its
// decls table gives goroutine-lifecycle the body a `go f()` runs.
type callGraph struct {
	pkg   *Package
	decls map[*types.Func]*ast.FuncDecl
	calls map[*types.Func][]*types.Func
}

func buildCallGraph(pkg *Package) *callGraph {
	g := &callGraph{
		pkg:   pkg,
		decls: map[*types.Func]*ast.FuncDecl{},
		calls: map[*types.Func][]*types.Func{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fd
		}
	}
	for obj, fd := range g.decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pkg.Info, call); callee != nil {
				if _, local := g.decls[callee]; local {
					g.calls[obj] = append(g.calls[obj], callee)
				}
			}
			return true
		})
	}
	return g
}

// reachable returns the set of declared functions reachable from roots
// (roots included) over static intra-package calls.
func (g *callGraph) reachable(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	var walk func(f *types.Func)
	walk = func(f *types.Func) {
		if f == nil || seen[f] {
			return
		}
		seen[f] = true
		for _, callee := range g.calls[f] {
			walk(callee)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// stmtInBlock locates the innermost block under root directly
// containing target, and target's index there.
func stmtInBlock(root ast.Node, target ast.Stmt) (*ast.BlockStmt, int) {
	var blk *ast.BlockStmt
	idx := -1
	ast.Inspect(root, func(n ast.Node) bool {
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range b.List {
			if s == target {
				blk, idx = b, i
			}
		}
		return true
	})
	return blk, idx
}

// calleeFunc resolves a call expression's static callee, unwrapping
// parens. Returns nil for builtins, type conversions, and calls of
// function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the named type of f's receiver (through pointers),
// or nil for plain functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// funcFromExpr resolves an expression denoting a function or method
// value (n.post, tickFn) to its *types.Func, or nil.
func funcFromExpr(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// tickRoot resolves what will tick every cycle once e is handed to
// (*sim.Engine).AddTicker: a function literal (lit) or a declared
// function or method value (fn). Both results are nil when e is neither.
func tickRoot(info *types.Info, e ast.Expr) (fn *types.Func, lit *ast.FuncLit) {
	if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		return nil, lit
	}
	return funcFromExpr(info, e), nil
}

// isPkgFunc reports whether f is the function pkgPath.name (methods:
// receiver base type typeName; typeName "" matches package-level).
func isPkgFunc(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath || f.Name() != name {
		return false
	}
	n := recvNamed(f)
	if typeName == "" {
		return n == nil
	}
	return n != nil && n.Obj().Name() == typeName
}
