package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedErr flags expression statements in internal/ packages that
// call an error-returning function and drop the result on the floor.
// An explicit `_ = f()` is accepted as a documented decision; a bare
// call is indistinguishable from a forgotten check.
//
// Deliberate exemptions (documented never-fail or best-effort sinks):
//   - methods on bytes.Buffer and strings.Builder (their Write/
//     WriteString/WriteByte errors are defined to always be nil),
//   - the fmt.Print/Fprint families: formatted report emission is
//     best-effort by design here — renderers stream human-readable
//     tables, and a failing report writer (closed pipe, full disk)
//     surfaces in the surrounding command, not per line. Errors that
//     guard data integrity (Close, Remove, Encode, ...) stay flagged.
//
// Deferred calls are also exempt: `defer f.Close()` on a read path is
// conventional cleanup whose error has no receiver.
func UncheckedErr() *Analyzer {
	return &Analyzer{
		Name: "unchecked-err",
		Applies: func(m *Module, pkg *Package) bool {
			return isInternal(m, pkg.Path)
		},
		Run: runUncheckedErr,
	}
}

func runUncheckedErr(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !callReturnsError(info, call) || errExempt(info, call) {
				return true
			}
			name := "call"
			if f := funcFromExpr(info, call.Fun); f != nil {
				name = f.Name()
			}
			pass.Report(call.Pos(),
				"result of error-returning "+name+" discarded: a failure here vanishes silently",
				"handle the error, or assign to _ to record that ignoring it is intentional")
			return true
		})
	}
}

// callReturnsError reports whether any result of call is an error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errExempt implements the documented exemption list.
func errExempt(info *types.Info, call *ast.CallExpr) bool {
	f := funcFromExpr(info, call.Fun)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "fmt":
		switch f.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	case "bytes":
		if n := recvNamed(f); n != nil && n.Obj().Name() == "Buffer" {
			return true
		}
	case "strings":
		if n := recvNamed(f); n != nil && n.Obj().Name() == "Builder" {
			return true
		}
	}
	return false
}
