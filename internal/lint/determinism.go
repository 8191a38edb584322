package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// bannedRandFuncs are the package-level math/rand functions that draw
// from the process-global stream. Constructors (New, NewSource,
// NewZipf) are fine: they feed component-private seeded streams, the
// pattern Engine.RNG exists for.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// Determinism bans the constructs that break byte-identical replay
// from (seed, config) in simulation packages: wall-clock time, the
// global math/rand stream, goroutines, and ranging over maps (unless
// the loop provably only accumulates into an order-insensitive sink,
// or collects keys that are sorted immediately after).
func Determinism() *Analyzer {
	return &Analyzer{
		Name:    "determinism",
		Applies: simPkgScope,
		Run:     runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Report(n.Pos(),
					"go statement in simulation package: the engine is single-goroutine by design; scheduling on the Go runtime is not replayable",
					"move concurrency to internal/runner (job level) or schedule work with Engine.At")
			case *ast.CallExpr:
				callee := calleeFunc(info, n)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				switch callee.Pkg().Path() {
				case "time":
					if callee.Name() == "Now" || callee.Name() == "Since" {
						pass.Report(n.Pos(),
							"call to time."+callee.Name()+" in simulation package: wall-clock time differs across runs and breaks golden-digest replay",
							"read simulated time from sim.Engine.Now(); time a job's wall clock in internal/runner")
					}
				case "math/rand", "math/rand/v2":
					if recvNamed(callee) == nil && bannedRandFuncs[callee.Name()] {
						pass.Report(n.Pos(),
							"global math/rand."+callee.Name()+" draws from the shared process stream: any other caller perturbs the sequence and replay diverges",
							"draw from a component-private *rand.Rand obtained via sim.Engine.RNG()")
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
}

// checkMapRange flags `for ... := range m` over a map unless the body
// is provably order-insensitive or the keys-then-sort idiom.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ob := newOrderCheck(pass.Pkg.Info, rng)
	if ob.bodyOK(rng.Body.List) {
		return
	}
	if ob.sortedAfter != nil && collectThenSortOK(pass, file, rng, ob.sortedAfter) {
		return
	}
	pass.Report(rng.Pos(),
		"range over map in simulation package: iteration order is randomized per run, so any order-sensitive effect diverges across replays",
		"iterate sorted keys, or restructure the body into order-insensitive accumulation (commutative ops, writes keyed by the range key)")
}

// orderCheck decides whether a map-range body is order-insensitive.
// Allowed statements:
//   - x++ / x--
//   - compound assignment with a commutative-associative op
//     (+=, *=, |=, &=, ^=)
//   - := defines (fresh per-iteration locals) and any assignment whose
//     target is such a local (or a field/element of one)
//   - assignment to a map element indexed by the range key (distinct
//     keys cannot collide, so write order is irrelevant)
//   - if/for/range statements whose bodies satisfy the same rules
//   - `s = append(s, ...)` appearances are recorded as a candidate for
//     the keys-then-sort idiom and judged by the caller
type orderCheck struct {
	info        *types.Info
	keyObj      types.Object // the range key variable, if an ident
	locals      map[types.Object]bool
	sortedAfter types.Object // slice appended to, for collect-then-sort
	appends     int
}

func newOrderCheck(info *types.Info, rng *ast.RangeStmt) *orderCheck {
	oc := &orderCheck{info: info, locals: map[types.Object]bool{}}
	if id, ok := rng.Key.(*ast.Ident); ok {
		oc.keyObj = info.Defs[id]
		if oc.keyObj == nil {
			oc.keyObj = info.Uses[id]
		}
	}
	// The range value variable is itself per-iteration state.
	if id, ok := rng.Value.(*ast.Ident); ok && id.Name != "_" {
		if obj := info.Defs[id]; obj != nil {
			oc.locals[obj] = true
		}
	}
	return oc
}

func (oc *orderCheck) bodyOK(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !oc.stmtOK(s) {
			return false
		}
	}
	// A body that only appends (plus other fine statements) is not
	// order-insensitive by itself; it is only acceptable as the
	// collect-then-sort idiom, which the caller validates.
	return oc.appends == 0
}

func (oc *orderCheck) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		// Calls for effect: order across iterations is unknowable.
		return false
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, n := range vs.Names {
				if obj := oc.info.Defs[n]; obj != nil {
					oc.locals[obj] = true
				}
			}
		}
		return true
	case *ast.AssignStmt:
		return oc.assignOK(s)
	case *ast.IfStmt:
		if s.Init != nil && !oc.stmtOK(s.Init) {
			return false
		}
		if !oc.blockOK(s.Body) {
			return false
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				return oc.blockOK(e)
			case *ast.IfStmt:
				return oc.stmtOK(e)
			}
		}
		return true
	case *ast.ForStmt:
		// Nested plain loop: same statement rules apply to its body.
		return oc.blockOK(s.Body)
	case *ast.RangeStmt:
		// Nested range over a map inside a map range is checked (and
		// flagged) on its own; here only the body rules matter. Its
		// key/value are fresh per-iteration locals.
		if id, ok := s.Key.(*ast.Ident); ok {
			if obj := oc.info.Defs[id]; obj != nil {
				oc.locals[obj] = true
			}
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			if obj := oc.info.Defs[id]; obj != nil {
				oc.locals[obj] = true
			}
		}
		return oc.blockOK(s.Body)
	case *ast.BlockStmt:
		return oc.blockOK(s)
	case *ast.BranchStmt:
		// continue is harmless; break/goto make order observable.
		return s.Tok == token.CONTINUE
	default:
		// break, return, goto, select, send, go, defer, ...: all make
		// the iteration order observable (or are banned outright).
		return false
	}
}

func (oc *orderCheck) blockOK(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !oc.stmtOK(s) {
			return false
		}
	}
	return true
}

func (oc *orderCheck) assignOK(a *ast.AssignStmt) bool {
	switch a.Tok.String() {
	case ":=":
		for _, lhs := range a.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return false
			}
			if obj := oc.info.Defs[id]; obj != nil {
				oc.locals[obj] = true
			}
		}
		return true
	case "+=", "*=", "|=", "&=", "^=":
		return true
	case "=":
		if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
			return false
		}
		lhs := a.Lhs[0]
		// Storing a compile-time constant is order-insensitive: every
		// iteration that writes at all writes the same value (the
		// `found = true` / `drained = false` latch idiom).
		if tv, ok := oc.info.Types[a.Rhs[0]]; ok && tv.Value != nil {
			if id, isID := ast.Unparen(lhs).(*ast.Ident); isID && objOf(oc.info, id) != nil {
				return true
			}
			if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); isSel {
				return true
			}
		}
		// Self-append: candidate for the collect-then-sort idiom.
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			if isBuiltinAppend(oc.info, call) {
				if tid, ok := ast.Unparen(lhs).(*ast.Ident); ok && len(call.Args) >= 1 {
					if aid, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok &&
						objOf(oc.info, tid) != nil && objOf(oc.info, tid) == objOf(oc.info, aid) {
						obj := objOf(oc.info, tid)
						if oc.locals[obj] {
							return true // appending into a per-iteration local
						}
						oc.appends++
						if oc.sortedAfter == nil {
							oc.sortedAfter = obj
						}
						return true
					}
				}
			}
		}
		return oc.targetOrderFree(lhs)
	default:
		return false
	}
}

// targetOrderFree reports whether writing lhs is order-insensitive:
// a per-iteration local (or a field/element of one), or a map element
// indexed by the range key itself.
func (oc *orderCheck) targetOrderFree(lhs ast.Expr) bool {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		// m[key] = ... where key is the range key: distinct iterations
		// write distinct elements.
		if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok && oc.keyObj != nil && objOf(oc.info, id) == oc.keyObj {
			return true
		}
	}
	if root := rootIdent(lhs); root != nil {
		if obj := objOf(oc.info, root); obj != nil && oc.locals[obj] {
			return true
		}
	}
	return false
}

// collectThenSortOK validates the keys-then-sort idiom: the appended
// slice must be passed to a sort.* or slices.* call later in the block
// that encloses the range statement.
func collectThenSortOK(pass *Pass, file *ast.File, rng *ast.RangeStmt, sliceObj types.Object) bool {
	block, idx := stmtInBlock(file, rng)
	if block == nil {
		return false
	}
	for _, s := range block.List[idx+1:] {
		sorted := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Pkg.Info, call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				used := false
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && objOf(pass.Pkg.Info, id) == sliceObj {
						used = true
					}
					return true
				})
				if used {
					sorted = true
				}
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// rootIdent returns the base identifier of an lvalue chain
// (x, x.f, x[i].g → x), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// isBuiltinAppend reports whether call invokes the builtin append.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "append"
	}
	// Untyped builtins sometimes land in Uses as *types.Builtin; if the
	// identifier resolved to a user object it is not the builtin.
	return info.Uses[id] == nil && info.Defs[id] == nil
}
