package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Lock tracking shared by the concurrency rule family: guarded-field
// asks whether a mutex is held at each field access. The model is
// deliberately simple and package-local:
//
//   - A mutex is identified by its declaring object (a struct field or
//     a variable of type sync.Mutex / sync.RWMutex, possibly behind a
//     pointer), not by instance. `b.mu.Lock()` therefore proves
//     Board.mu held for ANY Board — instance-insensitive, which is
//     exact for the repo's one-lock-per-struct designs and sound (it
//     can only under-report across distinct instances of the same
//     type, never claim a lock held that the code does not take).
//   - Each function body is scanned sequentially from its entry set:
//     Lock/RLock add the mutex to the held set, Unlock/RUnlock remove
//     it (taken locally or held at entry alike), and a deferred Unlock
//     is ignored (it runs at return, so the mutex stays held for the
//     rest of the body). Block, case and comm-clause bodies are scanned
//     on a copy of the held set and their changes are discarded — the
//     classic `if bad { mu.Unlock(); return }` early exit keeps the
//     fallthrough path held, while a Lock inside a branch never leaks
//     out.
//   - Function literals are separate scan units with an empty entry
//     set: a closure runs whenever its host calls it (often on another
//     goroutine), so it must prove its own locking.
//   - Call-graph propagation: a function whose every intra-package
//     call site provably holds mutex M starts its scan with M held
//     (greatest fixpoint: every called function starts holding every
//     mutex, and the bodies are rescanned until no entry set shrinks).
//     This is what resolves the `fooLocked` helper convention without
//     naming magic. `go f()` and `defer f()` call sites transfer no
//     held state (the goroutine runs unlocked; the defer runs at exit).

// heldSet is a set of mutex objects.
type heldSet map[types.Object]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// fieldAccess is one read or write of a struct field, with the
// mutexes held on the sequential path reaching it.
type fieldAccess struct {
	pos   token.Pos
	obj   types.Object // the field's object
	write bool
	held  heldSet
}

// acquisition is one Lock/RLock call site.
type acquisition struct {
	pos  token.Pos
	mu   types.Object
	held heldSet
}

// callSite is one static intra-package call.
type callSite struct {
	pos    token.Pos
	callee *types.Func
	held   heldSet
	// async call sites (`go f()`, `defer f()`) transfer no lock state:
	// the callee starts with nothing provably held.
	async bool
}

// scanUnit is the lock-annotated scan of one function body. fn is nil
// for function literals (empty entry set by construction).
type scanUnit struct {
	fn       *types.Func
	body     *ast.BlockStmt
	accesses []fieldAccess
	acquires []acquisition
	calls    []callSite
}

// lockFacts bundles everything the concurrency rules need about one
// package: the guarded-by annotation table, the per-function scan
// units, and the entry-held fixpoint.
type lockFacts struct {
	pkg *Package
	// guards maps an annotated field object to the mutex object that
	// the annotation names.
	guards map[types.Object]types.Object
	// badAnnots are `guarded by` annotations that do not resolve to a
	// mutex field; they are findings (a typo silently unguards a field).
	badAnnots []annotErr
	// owner names the struct type declaring each field or mutex object,
	// for diagnostics ("Board.mu", not "mu").
	owner map[types.Object]string
	// siblings maps a struct's non-mutex fields to the struct's own
	// mutex field, for structs that declare exactly one — the inference
	// candidates of the guarded-field rule.
	siblings map[types.Object]types.Object
	units    []*scanUnit
	// entry is the greatest-fixpoint entry-held set of each declared
	// function with an intra-package call site.
	entry map[*types.Func]heldSet
}

// annotErr is one malformed or unresolvable guarded-by annotation.
type annotErr struct {
	pos token.Pos
	msg string
}

// syncKind classifies a type as synchronization or signalling plumbing:
// the one table behind "is this a mutex" (lock tracking), "is this
// lock-protected data" (guarded-field inference: anything but notSync
// carries its own safety) and "is this a join signal"
// (goroutine-lifecycle).
type syncKind int

const (
	notSync       syncKind = iota
	syncMutex              // sync.Mutex, sync.RWMutex
	syncWaitGroup          // sync.WaitGroup
	syncChan               // any channel
	syncContext            // context.Context
	syncOther              // the rest of sync and context, and all of sync/atomic (Once, Cond, CancelFunc, Int32, ...)
)

// syncKindOf classifies t, looking through pointers. A nil type (an
// expression the checker recorded nothing for) is notSync.
func syncKindOf(t types.Type) syncKind {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if t == nil {
		return notSync
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return syncChan
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return notSync
	}
	switch path, name := n.Obj().Pkg().Path(), n.Obj().Name(); {
	case path == "sync" && (name == "Mutex" || name == "RWMutex"):
		return syncMutex
	case path == "sync" && name == "WaitGroup":
		return syncWaitGroup
	case path == "context" && name == "Context":
		return syncContext
	case path == "sync" || path == "sync/atomic" || path == "context":
		return syncOther
	}
	return notSync
}

// lockFactsFor returns pkg's lock facts, built once per package and
// shared by every analyzer and repeated Run call on the same load.
func lockFactsFor(pkg *Package) *lockFacts {
	if pkg.locks == nil {
		pkg.locks = buildLockFacts(pkg)
	}
	return pkg.locks
}

var guardedByRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

func buildLockFacts(pkg *Package) *lockFacts {
	f := &lockFacts{
		pkg:      pkg,
		guards:   map[types.Object]types.Object{},
		owner:    map[types.Object]string{},
		siblings: map[types.Object]types.Object{},
		entry:    map[*types.Func]heldSet{},
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							f.addStruct(ts, st)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body != nil {
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					f.addUnit(fn, d.Body)
				}
			}
		}
	}
	f.solveEntry()
	return f
}

// addStruct records one struct declaration's field ownership, resolves
// its `// guarded by mu` / `// guarded by Type.mu` annotations, and adds
// its inference candidates.
func (f *lockFacts) addStruct(ts *ast.TypeSpec, st *ast.StructType) {
	info := f.pkg.Info
	var mutexes []types.Object
	for _, fl := range st.Fields.List {
		for _, n := range fl.Names {
			if obj := info.Defs[n]; obj != nil {
				f.owner[obj] = ts.Name.Name
				if syncKindOf(obj.Type()) == syncMutex {
					mutexes = append(mutexes, obj)
				}
			}
		}
	}
	for _, fl := range st.Fields.List {
		if ref, pos, ok := guardedAnnotation(fl); ok {
			mu := f.resolveGuard(ts.Name.Name, ref)
			if mu == nil {
				f.badAnnots = append(f.badAnnots, annotErr{pos: pos,
					msg: "guarded-by annotation names \"" + ref + "\", which is not a mutex field in this package"})
				continue
			}
			for _, n := range fl.Names {
				if obj := info.Defs[n]; obj != nil {
					f.guards[obj] = mu
				}
			}
			continue
		}
		// Inference candidates: unannotated plain fields of a struct
		// with exactly one mutex. Synchronization primitives carry
		// their own safety and are excluded.
		if len(mutexes) != 1 {
			continue
		}
		for _, n := range fl.Names {
			if obj := info.Defs[n]; obj != nil && syncKindOf(obj.Type()) == notSync {
				f.siblings[obj] = mutexes[0]
			}
		}
	}
}

// resolveGuard maps an annotation reference on a field of the struct
// typeName to a mutex field: a bare name is a sibling field, Type.name
// a field of another struct in the same package (the outer lock of a
// nested ownership design, e.g. campaign state guarded by
// Scheduler.mu).
func (f *lockFacts) resolveGuard(typeName, ref string) types.Object {
	if t, field, qualified := strings.Cut(ref, "."); qualified {
		typeName, ref = t, field
	}
	tn, _ := f.pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
	if tn == nil {
		return nil
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if v := st.Field(i); v.Name() == ref && syncKindOf(v.Type()) == syncMutex {
			return v
		}
	}
	return nil
}

// guardedAnnotation extracts a `guarded by X` marker from a field's
// doc or line comment.
func guardedAnnotation(fl *ast.Field) (ref string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedByRE.FindStringSubmatch(c.Text); m != nil {
				return m[1], c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// addUnit adds body as a unit, scanned with an empty entry set, then
// each function literal in it as a unit of its own.
func (f *lockFacts) addUnit(fn *types.Func, body *ast.BlockStmt) {
	u := &scanUnit{fn: fn, body: body}
	f.units = append(f.units, u)
	for _, lit := range f.scan(u) {
		f.addUnit(nil, lit.Body)
	}
}

// scan (re)records u's accesses, acquisitions and call sites, starting
// from its entry set, and returns the function literals it skipped.
func (f *lockFacts) scan(u *scanUnit) []*ast.FuncLit {
	u.accesses, u.acquires, u.calls = nil, nil, nil
	sc := &lockScanner{facts: f, unit: u, held: f.entry[u.fn].clone()}
	ast.Inspect(u.body, sc.visit)
	return sc.lits
}

// lockScanner walks one unit's statements maintaining the sequential
// lock state.
type lockScanner struct {
	facts *lockFacts
	unit  *scanUnit
	held  heldSet
	async bool // inside a go or defer call expression
	lits  []*ast.FuncLit
}

// visit is the ast.Inspect visitor of a unit's scan.
func (sc *lockScanner) visit(n ast.Node) bool {
	info := sc.facts.pkg.Info
	switch n := n.(type) {
	case nil:
		return false
	case *ast.FuncLit:
		sc.lits = append(sc.lits, n)
		return false
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		// A branch: scanned on a copy of the held set, whose changes
		// end with it.
		saved := sc.held
		sc.held = saved.clone()
		ast.Inspect(n, func(c ast.Node) bool { return c == n || sc.visit(c) })
		sc.held = saved
		return false
	case *ast.ExprStmt:
		mu, lock := sc.facts.mutexOp(n.X)
		if mu == nil {
			return true
		}
		if lock {
			sc.unit.acquires = append(sc.unit.acquires, acquisition{pos: n.X.Pos(), mu: mu, held: sc.held.clone()})
			sc.held[mu] = true
		} else {
			delete(sc.held, mu)
		}
		return false
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the mutex stays held for
		// the rest of the body.
		if mu, _ := sc.facts.mutexOp(n.Call); mu == nil {
			sc.spawn(n.Call)
		}
		return false
	case *ast.GoStmt:
		sc.spawn(n.Call)
		return false
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			sc.write(lhs)
		}
		for _, rhs := range n.Rhs {
			ast.Inspect(rhs, sc.visit)
		}
		return false
	case *ast.IncDecStmt:
		sc.write(n.X)
		return false
	case *ast.SelectorExpr:
		if obj := refObj(info, n); obj != nil {
			sc.record(n.Sel.Pos(), obj, false)
		}
	case *ast.CallExpr:
		if callee := funcFromExpr(info, n.Fun); callee != nil &&
			callee.Pkg() != nil && callee.Pkg().Path() == sc.facts.pkg.Path {
			sc.unit.calls = append(sc.unit.calls, callSite{pos: n.Pos(), callee: callee, held: sc.held.clone(), async: sc.async})
		}
	}
	return true
}

// spawn scans a go or defer call: its accesses are recorded with the
// spawn-point state (argument evaluation happens there), but its calls
// transfer no lock state.
func (sc *lockScanner) spawn(call *ast.CallExpr) {
	sc.async = true
	ast.Inspect(call, sc.visit)
	sc.async = false
}

// write records an assignment target: a direct field selector is a
// write of that field; any deeper shape (index, deref, nested struct)
// is recorded as reads of the fields on its access path.
func (sc *lockScanner) write(lhs ast.Expr) {
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if obj := refObj(sc.facts.pkg.Info, sel); obj != nil {
			sc.record(sel.Sel.Pos(), obj, true)
			lhs = sel.X
		}
	}
	ast.Inspect(lhs, sc.visit)
}

func (sc *lockScanner) record(pos token.Pos, obj types.Object, write bool) {
	sc.unit.accesses = append(sc.unit.accesses, fieldAccess{pos: pos, obj: obj, write: write, held: sc.held.clone()})
}

// mutexOp resolves e as a Lock/RLock (lock true) or Unlock/RUnlock
// call on a trackable mutex: a struct field or a variable of type
// sync.Mutex or sync.RWMutex.
func (f *lockFacts) mutexOp(e ast.Expr) (mu types.Object, lock bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	callee := funcFromExpr(f.pkg.Info, sel)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return nil, false
	}
	switch callee.Name() {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return nil, false
	}
	if mu = refObj(f.pkg.Info, sel.X); mu == nil || syncKindOf(mu.Type()) != syncMutex {
		return nil, false
	}
	return mu, lock
}

// solveEntry computes the greatest fixpoint of
//
//	entry[f] = intersection over intra-package call sites s of f
//	           of the mutexes held at s
//
// where an async site (`go`, `defer`) holds nothing. Every function
// with a call site starts holding every mutex the first scan found
// acquired or named; each body whose entry set shrank is rescanned
// from it, until none shrinks. Roots keep an empty entry set.
func (f *lockFacts) solveEntry() {
	universe := heldSet{}
	for _, u := range f.units {
		for _, a := range u.acquires {
			universe[a.mu] = true
		}
	}
	for _, mu := range f.guards {
		universe[mu] = true
	}
	for _, mu := range f.siblings {
		universe[mu] = true
	}
	shrunk := map[*types.Func]bool{}
	for _, u := range f.units {
		for _, cs := range u.calls {
			shrunk[cs.callee] = true
		}
	}
	for fn := range shrunk {
		f.entry[fn] = universe.clone()
	}
	for len(shrunk) > 0 {
		for _, u := range f.units {
			if shrunk[u.fn] {
				f.scan(u)
			}
		}
		shrunk = map[*types.Func]bool{}
		for _, u := range f.units {
			for _, cs := range u.calls {
				entry := f.entry[cs.callee]
				for mu := range entry {
					if cs.async || !cs.held[mu] {
						delete(entry, mu)
						shrunk[cs.callee] = true
					}
				}
			}
		}
	}
}

// name renders a field or mutex object for diagnostics: Type.field for
// struct fields, the plain name for variables.
func (f *lockFacts) name(obj types.Object) string {
	if owner, ok := f.owner[obj]; ok {
		return owner + "." + obj.Name()
	}
	return obj.Name()
}
