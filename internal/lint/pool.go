package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolHygiene statically audits pkt.Pool ownership: a packet acquired
// from a pool (Pool.NewData / Pool.NewBECN) must, within the acquiring
// function, either transfer ownership (be passed to a call, stored
// into a field/element/channel, or returned) or be Released on every
// path; and it must never be Released twice on one path. This is the
// compile-time face of the double-release/leak class the runtime
// invariant checker (PR 3) catches only when a test actually walks the
// buggy path.
//
// Package-level pkt.NewData/NewBECN (nil-pool convenience
// constructors) are exempt: unpooled packets are garbage-collected.
func PoolHygiene() *Analyzer {
	return &Analyzer{
		Name:    "pool-hygiene",
		Applies: simPkgScope,
		Run:     runPoolHygiene,
	}
}

func runPoolHygiene(pass *Pass) {
	pktPath := pass.Module.Name + "/internal/pkt"
	// The pool's own package implements the free-list.
	if pass.Pkg.Path == pktPath {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolInFunc(pass, fd, pktPath)
		}
	}
}

func isPoolAcquire(info *types.Info, call *ast.CallExpr, pktPath string) bool {
	callee := funcFromExpr(info, call.Fun)
	return isPkgFunc(callee, pktPath, "Pool", "NewData") || isPkgFunc(callee, pktPath, "Pool", "NewBECN")
}

func isPoolRelease(info *types.Info, call *ast.CallExpr, pktPath string) bool {
	return isPkgFunc(funcFromExpr(info, call.Fun), pktPath, "Pool", "Release")
}

// checkPoolInFunc finds acquisitions in one function and runs the path
// walk for each tracked variable.
func checkPoolInFunc(pass *Pass, fd *ast.FuncDecl, pktPath string) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPoolAcquire(info, call, pktPath) {
				pass.Report(call.Pos(),
					"pool acquisition result discarded: the packet can never be released (leaks from the free-list)",
					"keep the *pkt.Packet and release or enqueue it")
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok || !isPoolAcquire(info, call, pktPath) {
				return true
			}
			id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
			if !ok || id.Name == "_" {
				if !ok {
					return true // stored straight into a field/element: ownership transferred
				}
				pass.Report(call.Pos(),
					"pool acquisition assigned to _: the packet can never be released (leaks from the free-list)",
					"keep the *pkt.Packet and release or enqueue it")
				return true
			}
			v := objOf(info, id)
			if v == nil {
				return true
			}
			w := &poolWalk{pass: pass, info: info, pkt: v, pktPath: pktPath, acquirePos: call.Pos()}
			// Walk the statements that follow the acquisition in its
			// enclosing block, then judge the fallthrough state.
			blk, idx := stmtInBlock(fd.Body, s)
			if blk == nil {
				return true
			}
			st := w.walkStmts(blk.List[idx+1:], stLive)
			if st == stLive {
				pass.Report(call.Pos(),
					"pool-acquired packet is neither released nor ownership-transferred on some path through this function (leaks from the free-list)",
					"Release the packet on every early return, or hand it to exactly one owner (queue, link, field)")
			}
		}
		return true
	})
}

// ownership state of the tracked packet along one path.
type ownState int

const (
	stLive    ownState = iota // we still own it; a return now leaks
	stDone                    // released, or ownership transferred
	stUnknown                 // aliased/merged ambiguously: stop judging
	stStopped                 // path terminated (return/panic) with no leak
	stLeaked                  // a leak was already reported on this path
)

type poolWalk struct {
	pass       *Pass
	info       *types.Info
	pkt        types.Object
	pktPath    string
	acquirePos token.Pos
	released   bool // a Release(pkt) was seen on the current path
}

// walkStmts advances the ownership state across a statement list.
func (w *poolWalk) walkStmts(stmts []ast.Stmt, st ownState) ownState {
	for _, s := range stmts {
		st = w.walkStmt(s, st)
		if st == stStopped || st == stUnknown || st == stLeaked {
			return st
		}
	}
	return st
}

func (w *poolWalk) walkStmt(s ast.Stmt, st ownState) ownState {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if w.usesPkt(r) {
				return stStopped // returned: caller owns it now
			}
		}
		if st == stLive {
			w.pass.Report(s.Pos(),
				"return while a pool-acquired packet is still owned and unreleased: the packet leaks from the free-list",
				"Release the packet before this return or transfer its ownership first")
			return stLeaked
		}
		return stStopped
	case *ast.IfStmt:
		// Conditional ownership transfer — `if !node.Offer(p) {
		// pool.Release(p) }` — is the simulator's admission idiom: the
		// call in the condition may or may not have taken the packet,
		// so the branches are walked without judging and the analysis
		// ends ambiguous rather than risking a false positive.
		if w.condTransfers(s.Cond) {
			w.walkStmts(s.Body.List, stUnknown)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				w.walkStmts(e.List, stUnknown)
			case *ast.IfStmt:
				w.walkStmt(e, stUnknown)
			}
			return stUnknown
		}
		st = w.scanExpr(s.Cond, st)
		thenSt := w.walkStmts(s.Body.List, st)
		elseSt := st
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseSt = w.walkStmts(e.List, st)
		case *ast.IfStmt:
			elseSt = w.walkStmt(e, st)
		case nil:
		}
		return mergeStates(thenSt, elseSt)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Control flow too rich for this mini-analysis: scan for any
		// use; if the packet is touched at all inside, stop judging.
		used := false
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && w.isPktIdent(e) {
				used = true
			}
			return !used
		})
		if used {
			return stUnknown
		}
		return st
	case *ast.ExprStmt:
		return w.scanExpr(s.X, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = w.scanExpr(rhs, st)
		}
		// Reassigning the tracked variable ends the analysis.
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && objOf(w.info, id) == w.pkt {
				return stUnknown
			}
		}
		// The packet appearing on an assignment's RHS (stored into a
		// field, element, map, or aliased) transfers ownership.
		for _, rhs := range s.Rhs {
			if w.usesPkt(rhs) && st == stLive {
				st = stDone
			}
		}
		return st
	case *ast.DeferStmt:
		if call := s.Call; call != nil {
			return w.scanCall(call, st)
		}
		return st
	default:
		// Other statements: any syntactic use of the packet in an
		// expression position is found by a conservative scan.
		found := st
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				found = w.scanCall(call, found)
				return false
			}
			return true
		})
		return found
	}
}

// scanExpr inspects an expression for Release / ownership-transferring
// uses of the packet.
func (w *poolWalk) scanExpr(e ast.Expr, st ownState) ownState {
	res := st
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			res = w.scanCall(call, res)
			return false
		}
		return true
	})
	return res
}

// scanCall classifies one call touching the packet: Release flips the
// state (and a second Release on the same path is the double-release
// class); any other call taking the packet transfers ownership.
func (w *poolWalk) scanCall(call *ast.CallExpr, st ownState) ownState {
	// Recurse into nested calls first (arguments are evaluated first).
	for _, a := range call.Args {
		if inner, ok := ast.Unparen(a).(*ast.CallExpr); ok {
			st = w.scanCall(inner, st)
		}
	}
	if isPoolRelease(w.info, call, w.pktPath) && len(call.Args) == 1 && w.isPktIdent(call.Args[0]) {
		if w.released {
			w.pass.Report(call.Pos(),
				"second Release of the same pool-acquired packet on one path: double release corrupts the free-list (two aliases of one Packet)",
				"exactly one owner releases; delete the redundant Release")
			return stDone
		}
		if st == stDone {
			w.pass.Report(call.Pos(),
				"Release of a packet whose ownership was already transferred: the new owner will release it again (double release)",
				"drop this Release; the component the packet was handed to is responsible for it")
			return stDone
		}
		w.released = true
		return stDone
	}
	for _, a := range call.Args {
		if w.usesPkt(a) {
			if st == stLive {
				return stDone // handed to a callee: ownership transferred
			}
			return st
		}
	}
	return st
}

// condTransfers reports whether an if-condition contains a non-Release
// call taking the packet — a conditional ownership transfer.
func (w *poolWalk) condTransfers(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || isPoolRelease(w.info, call, w.pktPath) {
			return true
		}
		for _, a := range call.Args {
			if w.usesPkt(a) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (w *poolWalk) isPktIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && objOf(w.info, id) == w.pkt
}

func (w *poolWalk) usesPkt(e ast.Expr) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(w.info, id) == w.pkt {
			used = true
		}
		return !used
	})
	return used
}

// mergeStates joins the two arms of a branch.
func mergeStates(a, b ownState) ownState {
	if a == b {
		return a
	}
	// A terminated or leaked arm leaves the other arm's state standing.
	switch {
	case a == stStopped || a == stLeaked:
		return b
	case b == stStopped || b == stLeaked:
		return a
	}
	// Divergent live/done/unknown arms: ambiguous, stop judging rather
	// than risk a false positive.
	return stUnknown
}
