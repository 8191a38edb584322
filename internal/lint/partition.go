package lint

import (
	"go/ast"
	"go/types"
)

// PartitionSafety holds the partitioned engine to the two contracts
// that keep a partitioned run byte-identical to a serial one: where
// cross-shard values are handed over, and what a shard worker may
// touch.
//
// Mailbox order (every file of a simulation package). sim.Mailbox.Drain
// assigns destination-engine sequence numbers in call order, so the
// order in which a barrier drains its mailboxes IS the cross-shard
// delivery order. A drain is only deterministic when it happens inside
// a loop over an index-ordered collection (a slice or array) — one
// mailbox drained from several ad-hoc sites, or from a map iteration,
// makes same-cycle cross-shard delivery depend on control flow the next
// refactor can silently reorder.
//
// Shard escape (bridge files, see bridgeScope). This is the targeted
// replacement for the blanket determinism file-ignore the parallel
// engine used to carry: bridge files may spawn goroutines, but only in
// the shape that keeps the shards apart. Concretely:
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
func PartitionSafety() *Analyzer {
	return &Analyzer{
		Name:    "partition-safety",
		Doc:     "sim.Mailbox.Drain runs in a loop over a slice/array (fixed cross-shard delivery order) and never on a worker; bridge-file goroutines are join-scoped closures that capture only sync plumbing (chan, WaitGroup, Context, sync/atomic)",
		Applies: simPkgScope,
		Run:     runPartitionSafety,
	}
}

func runPartitionSafety(pass *Pass) {
	info := pass.Pkg.Info
	for i, f := range pass.Pkg.Files {
		// Bodies a drain must not sit in (shard workers) and bodies it
		// must sit in: `for ... range <slice-or-array>` and the classic
		// three-clause `for` (whose iteration order is the loop
		// variable's, inherently fixed).
		var workers, ordered []*ast.BlockStmt
		bridge := isBridgeFile(pass.Module, pass.Pkg.Path, pass.Pkg.Filenames[i])
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Array, *types.Pointer:
						ordered = append(ordered, n.Body)
					}
				}
			case *ast.ForStmt:
				ordered = append(ordered, n.Body)
			case *ast.GoStmt:
				// Outside bridge files the determinism rule bans the
				// statement itself.
				if fd := enclosingFuncDecl(f, n.Pos()); bridge && fd != nil {
					if lit := checkShardWorker(pass, fd, n); lit != nil {
						workers = append(workers, lit.Body)
					}
				}
			}
			return true
		})
		within := func(call *ast.CallExpr, bodies []*ast.BlockStmt) bool {
			for _, b := range bodies {
				if b.Pos() <= call.Pos() && call.End() <= b.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isMailboxDrain(info, call) {
				return true
			}
			switch {
			case within(call, workers):
				pass.Report(call.Pos(),
					"Mailbox.Drain inside a worker goroutine: drains must run single-threaded at the barrier, after every shard has parked",
					"move the drain into the barrier callback, where the happens-before edge to all workers already exists")
			case !within(call, ordered):
				pass.Report(call.Pos(),
					"Mailbox.Drain outside an index-ordered loop: drain order assigns cross-shard event sequence numbers, and an ad-hoc call site lets a refactor silently reorder same-cycle delivery",
					"drain every mailbox from one `for _, mb := range <slice>` loop in fixed index order (see Network.barrier)")
			}
			return true
		})
	}
}

// checkShardWorker audits one bridge-file go statement spawned by fd
// and returns the worker's function literal (nil when it has none).
func checkShardWorker(pass *Pass, fd *ast.FuncDecl, gs *ast.GoStmt) *ast.FuncLit {
	info := pass.Pkg.Info
	lit, _ := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if lit == nil {
		pass.Report(gs.Pos(),
			"bridge-file goroutine must be an inline function literal: a named worker function hides which shard state the goroutine owns",
			"inline the worker as a closure taking its shard-owned state as spawn-time parameters")
		return nil
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
		// An atomic is shared on purpose and every access to it is
		// ordered; a plain int next to it is neither, and stays flagged.
		switch syncKindOf(v.Type()) {
		case syncChan, syncWaitGroup, syncContext, syncAtomic:
			return true
		}
		pass.Report(id.Pos(),
			"worker closure captures "+v.Name()+" ("+types.TypeString(v.Type(), types.RelativeTo(pass.Pkg.Types))+"): captured state is shared across every shard worker",
			"pass it to the closure as a spawn-time parameter, or route the values through a Mailbox posted during the window and drained at the barrier")
		return true
	})
	return lit
}

// isMailboxDrain matches a Drain method call on any type named Mailbox
// — by name rather than by module path, so the shard-escape testdata
// exercises it with a local stand-in while real code hits sim.Mailbox.
func isMailboxDrain(info *types.Info, call *ast.CallExpr) bool {
	callee := calleeFunc(info, call)
	if callee == nil || callee.Name() != "Drain" {
		return false
	}
	n := recvNamed(callee)
	return n != nil && n.Obj().Name() == "Mailbox"
}
