package lint

import (
	"go/ast"
	"go/types"
)

// PhaseDiscipline checks the wake/sleep contract of the engine's
// active lists. A component registers its tick function via
// (*sim.Engine).AddTicker and controls the registration through the
// returned *sim.TickerHandle. Two things make sleep-elision sound
// (see sim.TickerHandle's contract: a sleeping tick must be a no-op):
//
//  1. Sleep decisions belong to the component's own registered tick
//     functions — only there has it just proven itself idle. A Sleep
//     reachable only from other entry points (setup, receive paths,
//     another component's tick) can elide a tick that still had work.
//  2. A component manipulates only its own handles. Waking or sleeping
//     a handle owned by a different component type couples their
//     schedules invisibly.
//
// Wake from arrival paths is legal (worst case a spurious no-op tick),
// so Wake is checked only for rule 2.
func PhaseDiscipline() *Analyzer {
	return &Analyzer{
		Name: "phase-discipline",
		Doc:  "TickerHandle.Sleep only from the owner's registered tick functions; handles never driven by a foreign component",
		Applies: func(m *Module, pkg *Package) bool {
			// The defining package implements the API; everything else
			// in simulation scope must respect it.
			return isSimPackage(m, pkg.Path) && pkg.Path != m.Name+"/internal/sim"
		},
		Run: runPhaseDiscipline,
	}
}

// registration records one AddTicker call site's facts.
type registration struct {
	handle types.Object // the variable/field the handle was stored in
	owner  *types.Named // receiver type of the registering function (nil: package level)
	tick   *types.Func  // the registered tick function, when resolvable
}

func runPhaseDiscipline(pass *Pass) {
	pkg := pass.Pkg
	info := pkg.Info
	simPath := pass.Module.Name + "/internal/sim"
	graph := buildCallGraph(pkg)

	// Pass 1: collect handle registrations `X = eng.AddTicker(phase, fn)`.
	var regs []*registration
	byHandle := map[types.Object][]*registration{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !isPkgFunc(calleeFunc(info, call), simPath, "Engine", "AddTicker") || len(call.Args) != 2 {
				return true
			}
			if len(as.Lhs) != 1 {
				return true
			}
			var handleObj types.Object
			switch lhs := ast.Unparen(as.Lhs[0]).(type) {
			case *ast.Ident:
				handleObj = objOf(info, lhs)
			case *ast.SelectorExpr:
				handleObj = objOf(info, lhs.Sel)
			}
			if handleObj == nil {
				return true
			}
			reg := &registration{handle: handleObj}
			if encl := enclosingFunc(pkg, as.Pos(), f); encl != nil {
				reg.owner = recvNamed(encl)
			}
			reg.tick, _ = tickRoot(info, call.Args[1])
			regs = append(regs, reg)
			byHandle[handleObj] = append(byHandle[handleObj], reg)
			return true
		})
	}
	if len(regs) == 0 {
		return
	}

	// Allowed Sleep sites per owner type: functions reachable from any
	// tick function that owner registered.
	ticksByOwner := map[*types.Named][]*types.Func{}
	for _, r := range regs {
		if r.tick != nil {
			ticksByOwner[r.owner] = append(ticksByOwner[r.owner], r.tick)
		}
	}
	reachableByOwner := map[*types.Named]map[*types.Func]bool{}
	for owner, ticks := range ticksByOwner {
		reachableByOwner[owner] = graph.reachable(ticks)
	}

	// Pass 2: audit Wake/Sleep call sites.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if !isPkgFunc(callee, simPath, "TickerHandle", "Wake") && !isPkgFunc(callee, simPath, "TickerHandle", "Sleep") {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var recvObj types.Object
			switch r := ast.Unparen(sel.X).(type) {
			case *ast.Ident:
				recvObj = objOf(info, r)
			case *ast.SelectorExpr:
				recvObj = objOf(info, r.Sel)
			}
			hregs := byHandle[recvObj]
			if recvObj == nil || len(hregs) == 0 {
				return true // handle not registered in this package: out of scope
			}
			encl := enclosingFunc(pkg, call.Pos(), f)
			enclOwner := (*types.Named)(nil)
			if encl != nil {
				enclOwner = recvNamed(encl)
			}
			owner := hregs[0].owner
			if owner != nil && enclOwner != owner {
				pass.Reportf(call.Pos(),
					"%s on a ticker handle owned by %s called outside its component: handles must only be driven by their owner",
					callee.Name(), owner.Obj().Name())
				return true
			}
			if callee.Name() == "Sleep" {
				reach := reachableByOwner[owner]
				if encl == nil || !reach[encl] {
					pass.Report(call.Pos(),
						"TickerHandle.Sleep outside the owner's registered tick functions: only a component's own tick has just proven the tick is a no-op",
						"decide sleep inside the registered tick (or a helper it calls); external paths should only Wake")
				}
			}
			return true
		})
	}
}
