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
// global math/rand stream, goroutines, and ranging over maps — except
// the collect-then-sort idiom, a loop whose whole body appends to a
// slice that is sorted after it.
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

// checkMapRange flags `for ... := range m` over a map unless the loop
// is the collect-then-sort idiom: a body that is exactly
// `s = append(s, …)`, with s sorted later in the enclosing block.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if s := collectedSlice(pass.Pkg.Info, rng.Body); s != nil && collectThenSortOK(pass, file, rng, s) {
		return
	}
	pass.Report(rng.Pos(),
		"range over map in simulation package: iteration order is randomized per run, so any order-sensitive effect diverges across replays",
		"iterate sorted keys: collect them with a lone `keys = append(keys, k)` body and sort keys right after the loop")
}

// collectedSlice returns the variable s when body is exactly the one
// statement `s = append(s, …)`, else nil.
func collectedSlice(info *types.Info, body *ast.BlockStmt) types.Object {
	if len(body.List) != 1 {
		return nil
	}
	as, ok := body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isBuiltinAppend(info, call) || len(call.Args) == 0 {
		return nil
	}
	dst, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	src, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := objOf(info, dst); obj != nil && obj == objOf(info, src) {
		return obj
	}
	return nil
}

// collectThenSortOK validates the collect-then-sort idiom: the appended
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
