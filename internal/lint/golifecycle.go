package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLifecycle requires every `go` statement in service scope to
// have a provable join: the goroutine must signal a sync.WaitGroup the
// package Wait()s on, send on or close a channel the package receives
// from, watch <-ctx.Done(), or consume a channel the package closes.
// An orphan goroutine is a leak — it outlives the request or the
// service object that spawned it, holds its captures alive, and (in
// tests) races shutdown. The repo's services all follow one of these
// four shapes already; the rule pins that down.
//
// The analysis is package-local and name-free: evidence is matched on
// the identity of the WaitGroup or channel object (field or variable),
// not on naming conventions. A `go` of a function this package cannot
// see into (another package's function, or a function value) is
// reported too — its lifetime is unprovable from here, so the join
// must be hoisted to a closure the package owns.
func GoroutineLifecycle() *Analyzer {
	return &Analyzer{
		Name: "goroutine-lifecycle",
		Applies: func(m *Module, pkg *Package) bool {
			return !isSimPackage(m, pkg.Path)
		},
		Run: runGoroutineLifecycle,
	}
}

// joinSignals is the package-wide join evidence: which WaitGroups are
// ever Wait()ed, which channels are ever received from, and which are
// ever closed. A goroutine body pairing with any of them is joined.
type joinSignals struct {
	waited   map[types.Object]bool // WaitGroups with a Wait() site
	received map[types.Object]bool // channels with a receive or range site
	closed   map[types.Object]bool // channels with a close() site
}

func runGoroutineLifecycle(pass *Pass) {
	info := pass.Pkg.Info
	sig := collectJoinSignals(info, pass.Pkg.Files)
	decls := funcDecls(pass.Pkg)

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, opaque := goStmtBody(pass.Pkg, decls, gs.Call)
			if opaque != "" {
				pass.Report(gs.Pos(),
					"goroutine runs "+opaque+", which this package cannot see into: its lifetime is unprovable",
					"wrap the call in a closure that signals a WaitGroup or done-channel owned by this package")
				return true
			}
			if hasJoinEvidence(info, body, sig) {
				return true
			}
			pass.Report(gs.Pos(),
				"goroutine started here has no provable join: it neither signals a WaitGroup this package Waits on, nor sends on/closes a channel this package receives from, nor watches <-ctx.Done()",
				"tie its lifetime down with wg.Add(1)/defer wg.Done() plus wg.Wait(), an owned done-channel, or a <-ctx.Done() select arm")
			return true
		})
	}
}

// goStmtBody resolves the statements a go statement runs: the literal
// body for `go func(){...}()`, the declared body for a same-package
// function or method. opaque names the callee when it cannot be
// resolved (cross-package call, function value).
func goStmtBody(pkg *Package, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) (*ast.BlockStmt, string) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, ""
	}
	callee := funcFromExpr(pkg.Info, call.Fun)
	if callee != nil {
		if fd, ok := decls[callee]; ok {
			return fd.Body, ""
		}
		return nil, callee.FullName()
	}
	return nil, "a function value"
}

// collectJoinSignals gathers the package-wide join evidence — the
// Wait/receive/close sites — from every file (goroutine bodies included:
// a pipeline stage may legitimately be joined by the next stage's
// goroutine).
func collectJoinSignals(info *types.Info, files []*ast.File) joinSignals {
	sig := joinSignals{
		waited:   map[types.Object]bool{},
		received: map[types.Object]bool{},
		closed:   map[types.Object]bool{},
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if obj := closedChan(info, n); obj != nil {
					sig.closed[obj] = true
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Wait" && syncKindOf(info.TypeOf(sel.X)) == syncWaitGroup {
					if obj := refObj(info, sel.X); obj != nil {
						sig.waited[obj] = true
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := refObj(info, n.X); obj != nil {
						sig.received[obj] = true
					}
				}
			case *ast.RangeStmt:
				if syncKindOf(info.TypeOf(n.X)) == syncChan {
					if obj := refObj(info, n.X); obj != nil {
						sig.received[obj] = true
					}
				}
			}
			return true
		})
	}
	return sig
}

// hasJoinEvidence reports whether a goroutine body pairs with any join
// signal in sig, or exits on a <-ctx.Done() receive (cancellation-scoped
// lifetime).
func hasJoinEvidence(info *types.Info, body *ast.BlockStmt, sig joinSignals) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// wg.Done() paired with a Wait() somewhere in the package.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Done" && syncKindOf(info.TypeOf(sel.X)) == syncWaitGroup {
				if obj := refObj(info, sel.X); obj != nil && sig.waited[obj] {
					found = true
				}
			}
			// close(done) where the package receives from done.
			if obj := closedChan(info, n); obj != nil && sig.received[obj] {
				found = true
			}
		case *ast.SendStmt:
			// ch <- v where the package receives from ch.
			if obj := refObj(info, n.Chan); obj != nil && sig.received[obj] {
				found = true
			}
		case *ast.UnaryExpr:
			// <-ctx.Done(): the goroutine exits on cancellation.
			if n.Op == token.ARROW {
				if isCtxDone(info, n.X) {
					found = true
				}
				// <-ch where the package closes ch: a consumer loop that
				// terminates when the owner closes the channel.
				if obj := refObj(info, n.X); obj != nil && sig.closed[obj] {
					found = true
				}
			}
		case *ast.RangeStmt:
			if syncKindOf(info.TypeOf(n.X)) == syncChan {
				if obj := refObj(info, n.X); obj != nil && sig.closed[obj] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// refObj resolves an expression to the declared object it denotes: a
// variable identifier or a struct-field selector. Join evidence is
// keyed on these objects, so `w.wg` in a goroutine matches `w.wg` at
// the Wait site regardless of receiver spelling — the same
// instance-insensitive identity the lock tracker uses.
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

// closedChan returns the channel object of a builtin close(ch) call.
func closedChan(info *types.Info, call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return nil
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	return refObj(info, call.Args[0])
}

// isCtxDone reports whether e is a call of context.Context.Done.
func isCtxDone(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return syncKindOf(info.TypeOf(sel.X)) == syncContext
}
