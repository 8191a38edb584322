package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces the zero-alloc discipline of the cycle
// engine's hot path (established by PR 2's overhaul): inside methods
// named Tick or Step, inside any function registered as a per-cycle
// ticker, and inside their intra-package callees, it flags
//
//   - composite literals (except empty zeroing literals),
//   - closures (each evaluation may heap-allocate its capture) — named
//     specifically when the literal is an argument of an interface
//     method call: dynamic dispatch defeats escape analysis, so that
//     closure is heap-allocated on every tick no matter what the
//     implementations do with it,
//   - append whose target is a bare identifier (a local, parameter or
//     package slice): only field- or element-backed storage (x.buf,
//     x.bins[i]) counts as preallocated scratch reused across cycles,
//   - implicit interface conversions at call sites (boxing).
//
// Everything inside a panic(...) argument is exempt: a dying run may
// allocate its last words.
func HotpathAlloc() *Analyzer {
	return &Analyzer{
		Name:    "hotpath-alloc",
		Applies: simPkgScope,
		Run:     runHotpath,
	}
}

var hotRootNames = map[string]bool{"Tick": true, "Step": true}

func runHotpath(pass *Pass) {
	pkg := pass.Pkg
	graph := buildCallGraph(pkg)
	simPath := pass.Module.Name + "/internal/sim"

	var roots []*types.Func
	rootLits := map[*ast.FuncLit]bool{} // closures registered as tickers: their bodies are hot
	for obj, fd := range graph.decls {
		if hotRootNames[fd.Name.Name] {
			roots = append(roots, obj)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// The ticker argument of AddTicker is a tick root.
			if len(call.Args) != 2 || !isPkgFunc(funcFromExpr(pkg.Info, call.Fun), simPath, "Engine", "AddTicker") {
				return true
			}
			if fn, lit := tickRoot(pkg.Info, call.Args[1]); lit != nil {
				rootLits[lit] = true
			} else if graph.decls[fn] != nil {
				roots = append(roots, fn)
			}
			return true
		})
	}

	hot := graph.reachable(roots)
	for obj := range hot {
		fd := graph.decls[obj]
		if fd == nil {
			continue
		}
		checkHotBody(pass, fd.Body)
	}
	// graph.reachable returns a map, but every report position flows
	// into the engine's global deterministic sort (plus dedupe), so
	// iteration order here cannot leak into the output.
	for lit := range rootLits {
		checkHotBody(pass, lit.Body)
	}
}

// checkHotBody walks one hot function body. For closures registered
// directly as tickers only the body is walked: the literal itself was
// built once at registration and is not a per-cycle cost.
func checkHotBody(pass *Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	info := pass.Pkg.Info
	var panicSpans, reportedLits []span
	viaInterface := map[*ast.FuncLit]bool{} // literals passed to interface method calls

	// Pre-pass: regions exempt from the discipline (panic arguments).
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltinPanic(info, call) {
			panicSpans = append(panicSpans, span{call.Pos(), call.End()})
		}
		return true
	})
	inSpans := func(pos token.Pos, spans []span) bool {
		for _, s := range spans {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if inSpans(n.Pos(), panicSpans) {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				return true // T{} zeroing: no allocation source
			}
			if inSpans(n.Pos(), reportedLits) {
				return true // nested in an already-reported literal
			}
			reportedLits = append(reportedLits, span{n.Pos(), n.End()})
			pass.Report(n.Pos(),
				"composite literal in per-cycle hot path: allocates (or copies) every tick",
				"hoist the value to a struct field reused across cycles")
		case *ast.FuncLit:
			if viaInterface[n] {
				pass.Report(n.Pos(),
					"closure passed to an interface method in per-cycle hot path: it escapes through the dynamic call and is heap-allocated every tick",
					"have the method append results into caller-owned scratch instead of calling back")
				return true
			}
			pass.Report(n.Pos(),
				"closure in per-cycle hot path: each evaluation may heap-allocate its captures",
				"hoist to a method value or a closure field built once at construction")
		case *ast.CallExpr:
			if isInterfaceMethodCall(info, n) {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						viaInterface[lit] = true
					}
				}
			}
			checkHotCall(pass, n)
		}
		return true
	})
}

type span struct{ lo, hi token.Pos }

// isInterfaceMethodCall reports whether call invokes a method through
// an interface value (dynamic dispatch).
func isInterfaceMethodCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv())
}

// checkHotCall flags growing appends and interface boxing at one call.
func checkHotCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if isBuiltinAppend(info, call) {
		// Only storage reached through a field or element (x.buf,
		// x.bins[i]) is reused across cycles; a bare identifier — a
		// local, a parameter or a package variable — is not.
		if len(call.Args) >= 1 {
			if _, bare := ast.Unparen(call.Args[0]).(*ast.Ident); bare {
				pass.Report(call.Pos(),
					"append to a non-preallocated slice in per-cycle hot path: only field-backed storage is reused across cycles, so this one grows (reallocates) under load",
					"append into a field-backed scratch slice preallocated with make(cap) at construction")
			}
		}
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): boxing only when T is an interface.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && concreteNonNil(info, call.Args[0]) {
			pass.Report(call.Pos(),
				"conversion to interface in per-cycle hot path: boxes the value (allocates)",
				"keep the concrete type on the hot path; convert once outside it")
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if concreteNonNil(info, arg) {
			pass.Report(arg.Pos(),
				"implicit conversion to interface argument in per-cycle hot path: boxes the value (allocates)",
				"avoid interface-taking calls on the hot path, or pass a preboxed value stored at construction")
		}
	}
}

// concreteNonNil reports whether e has a concrete (non-interface,
// non-nil) type — the case where passing it as an interface boxes.
func concreteNonNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	if isBasic && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type)
}

func isBuiltinPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
