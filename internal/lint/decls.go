package lint

import (
	"go/ast"
	"go/types"
)

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

// refObj resolves an expression to the declared object it denotes: a
// variable identifier or a struct-field selector. The lock tracker keys
// mutexes and guarded fields on these objects, so `w.mu` in one method
// matches `w.mu` in another regardless of receiver spelling.
func refObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(info, x)
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// objOf returns the object id declares or refers to.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
