package lint

import (
	"go/ast"
	"go/types"
)

// funcDecls maps each function and method a package declares with a
// body to its declaration: the body a `go f()` runs, for
// goroutine-lifecycle.
func funcDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	return decls
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
// (n.post, tickFn; a call's Fun) to its *types.Func, unwrapping
// parens. Returns nil for builtins, type conversions and function
// values.
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
