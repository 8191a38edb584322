package lint

import (
	"go/ast"
	"go/types"
)

// ShardEscape is the targeted replacement for the blanket determinism
// file-ignore the parallel engine used to carry: bridge files (see
// bridgeScope) may spawn goroutines, but only in the shape that keeps
// partitioned runs byte-identical to serial ones. Concretely:
//
//  1. Every worker goroutine is an inline function literal, joined
//     before its spawning function returns — a shard worker that
//     outlives Run() could observe the next window's state.
//  2. A worker closure may capture only synchronization plumbing
//     (WaitGroups, channels, contexts, sync/atomic values — the window
//     hand-off is built from the latter). Everything else — engines,
//     slices, plain counters — must arrive as a spawn-time parameter,
//     so a reviewer can see at the go statement exactly which state
//     the worker owns; a captured variable is shared across all workers
//     by construction and is exactly how cross-shard mutation sneaks
//     in. In particular a worker that claims shards receives the
//     engines it may claim as a parameter, never by capture.
//  3. Mailbox.Drain never runs inside a worker: cross-shard values
//     travel via Mailbox post during the window and are drained
//     single-threaded at the barrier, where the happens-before edge to
//     every shard already exists.
//
// Violations that are intentional (none today) take a line-level
// //lint:ignore with a reason — never a file-ignore.
func ShardEscape() *Analyzer {
	return &Analyzer{
		Name:    "shard-escape",
		Doc:     "bridge-file goroutines must be join-scoped closures that capture only sync plumbing (chan, WaitGroup, Context, sync/atomic) and never drain mailboxes off the barrier",
		Applies: pkgHasBridgeFile,
		Run:     runShardEscape,
	}
}

func runShardEscape(pass *Pass) {
	for i, f := range pass.Pkg.Files {
		if !isBridgeFile(pass.Module, pass.Pkg.Path, pass.Pkg.Filenames[i]) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkShardWorker(pass, fd, gs)
				}
				return true
			})
		}
	}
}

func checkShardWorker(pass *Pass, fd *ast.FuncDecl, gs *ast.GoStmt) {
	info := pass.Pkg.Info
	lit, _ := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if lit == nil {
		pass.Report(gs.Pos(),
			"bridge-file goroutine must be an inline function literal: a named worker function hides which shard state the goroutine owns",
			"inline the worker as a closure taking its shard-owned state as spawn-time parameters")
		return
	}

	// 1. Joined within the spawning function: the worker must pair with
	// a Wait/receive/close site of fd outside the goroutine itself.
	outer := newJoinSignals()
	gatherJoinSignals(info, fd.Body, gs, outer)
	if !hasJoinEvidence(info, lit.Body, outer, false) {
		pass.Report(gs.Pos(),
			"worker goroutine is not joined inside "+fd.Name.Name+": a shard worker that outlives its spawning call can observe the next window's state",
			"pair a wg.Done() in the worker with wg.Wait() before "+fd.Name.Name+" returns, or give the worker a channel this function closes or drains")
	}

	// 2. Captures: only synchronization plumbing may cross into the
	// worker by closure; data crosses by parameter or Mailbox.
	reported := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // parameter or local of the worker itself
		}
		reported[v] = true
		if allowedCapture(v.Type()) {
			return true
		}
		pass.Report(id.Pos(),
			"worker closure captures "+v.Name()+" ("+types.TypeString(v.Type(), types.RelativeTo(pass.Pkg.Types))+"): captured state is shared across every shard worker",
			"pass it to the closure as a spawn-time parameter, or route the values through a Mailbox posted during the window and drained at the barrier")
		return true
	})

	// 3. No mailbox drains on a worker.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isMailboxDrainCall(info, call) {
			pass.Report(call.Pos(),
				"Mailbox.Drain inside a worker goroutine: drains must run single-threaded at the barrier, after every shard has parked",
				"move the drain into the barrier callback, where the happens-before edge to all workers already exists")
		}
		return true
	})
}

// allowedCapture reports whether a captured variable's type is pure
// synchronization plumbing: channels, sync.WaitGroup, context.Context
// and the sync/atomic value types (each possibly behind one pointer).
// An atomic is shared on purpose and every access to it is ordered; a
// plain int next to it is neither, and stays flagged.
func allowedCapture(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch {
	case n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup":
		return true
	case n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context":
		return true
	case n.Obj().Pkg().Path() == "sync/atomic":
		return true // Int32, Uint64, Bool, Pointer[T], Value: all of its types are atomics
	}
	return false
}

// isMailboxDrainCall matches a Drain method call on any type named
// Mailbox — by name rather than by module path, so the rule's testdata
// (which cannot import internal/sim) exercises it with a local stand-in
// while real bridge files hit the real sim.Mailbox.
func isMailboxDrainCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Drain" {
		return false
	}
	callee, _ := info.Uses[sel.Sel].(*types.Func)
	if callee == nil {
		return false
	}
	n := recvNamed(callee)
	return n != nil && n.Obj().Name() == "Mailbox"
}
