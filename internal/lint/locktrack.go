package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Lock tracking shared by the concurrency rule family: guarded-field
// asks whether a mutex is held at each field access, lock-order whether
// one is held at each acquisition. The model is deliberately simple and
// package-local:
//
//   - A mutex is identified by its declaring object (a struct field or
//     a variable of type sync.Mutex / sync.RWMutex, possibly behind a
//     pointer), not by instance. `b.mu.Lock()` therefore proves
//     Board.mu held for ANY Board — instance-insensitive, which is
//     exact for the repo's one-lock-per-struct designs and sound (it
//     can only under-report across distinct instances of the same
//     type, never claim a lock held that the code does not take).
//   - Each function body is scanned sequentially: Lock/RLock add the
//     mutex to the held set, Unlock/RUnlock remove it, and a deferred
//     Unlock is ignored (it runs at return, so the mutex stays held
//     for the rest of the body). Nested control flow (if/for/switch/
//     select) is scanned on a copy of the held set and its mutations
//     are discarded — the classic `if bad { mu.Unlock(); return }`
//     early-exit keeps the fallthrough path held, while a Lock inside
//     a branch never leaks out.
//   - Function literals are separate scan units with an empty entry
//     set: a closure runs whenever its host calls it (often on another
//     goroutine), so it must prove its own locking.
//   - Call-graph propagation: a function whose every intra-package
//     call site provably holds mutex M is analyzed with M held at
//     entry (greatest fixpoint, optimistic start). This is what
//     resolves the `fooLocked` helper convention without naming
//     magic. `go f()` and `defer f()` call sites transfer no held
//     state (the goroutine runs unlocked; the defer runs at exit).

// heldSet is a set of mutex objects.
type heldSet map[types.Object]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		if v {
			c[k] = true
		}
	}
	return c
}

// fieldAccess is one read or write of a struct field, with the lock
// state observed on the sequential path reaching it.
type fieldAccess struct {
	pos    token.Pos
	obj    types.Object // the field's object
	write  bool
	held   heldSet // mutexes locally acquired before this point
	killed heldSet // entry-held mutexes locally released before this point
}

// acquisition is one Lock/RLock call site.
type acquisition struct {
	pos    token.Pos
	mu     types.Object
	held   heldSet
	killed heldSet
}

// callSite is one static intra-package call.
type callSite struct {
	pos    token.Pos
	callee *types.Func
	held   heldSet
	killed heldSet
	// async call sites (`go f()`, `defer f()`) transfer no lock state:
	// the callee starts with nothing provably held.
	async bool
}

// scanUnit is the lock-annotated scan of one function body. fn is nil
// for function literals (empty entry set by construction).
type scanUnit struct {
	fn       *types.Func
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
	// entry is the greatest-fixpoint entry-held set per declared
	// function.
	entry map[*types.Func]heldSet
}

// annotErr is one malformed or unresolvable guarded-by annotation.
type annotErr struct {
	pos token.Pos
	msg string
}

// effectiveHeld reports whether mu is held at a point observed with
// (held, killed) inside a function whose entry set is entry.
func effectiveHeld(mu types.Object, held, killed, entry heldSet) bool {
	if held[mu] {
		return true
	}
	return entry[mu] && !killed[mu]
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
	f.collectAnnotations()
	f.scanFunctions()
	f.solveEntry()
	return f
}

// structDecl is one struct type declaration's shape, for annotation
// resolution.
type structDecl struct {
	name   string
	fields []*ast.Field
}

// collectAnnotations walks every struct declaration, records field
// ownership, resolves `// guarded by mu` / `// guarded by Type.mu`
// annotations, and builds the sibling-mutex table for inference.
func (f *lockFacts) collectAnnotations() {
	info := f.pkg.Info
	fieldObj := func(name *ast.Ident) types.Object { return info.Defs[name] }

	// First pass: struct names and field lists, so Type.mu references
	// resolve regardless of declaration order.
	var structs []*structDecl
	byName := map[string]*structDecl{}
	for _, file := range f.pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				sd := &structDecl{name: ts.Name.Name, fields: st.Fields.List}
				structs = append(structs, sd)
				byName[sd.name] = sd
			}
		}
	}

	lookupField := func(sd *structDecl, fieldName string) types.Object {
		for _, fl := range sd.fields {
			for _, n := range fl.Names {
				if n.Name == fieldName {
					return fieldObj(n)
				}
			}
		}
		return nil
	}
	// resolveGuard maps an annotation reference to a mutex object: a
	// bare name is a sibling field, Type.name is a field of another
	// struct in the same package (the outer lock of a nested ownership
	// design, e.g. campaign state guarded by Scheduler.mu).
	resolveGuard := func(sd *structDecl, ref string) types.Object {
		var obj types.Object
		if typeName, fieldName, qualified := strings.Cut(ref, "."); qualified {
			if other := byName[typeName]; other != nil {
				obj = lookupField(other, fieldName)
			}
		} else {
			obj = lookupField(sd, ref)
		}
		if obj == nil || syncKindOf(obj.Type()) != syncMutex {
			return nil
		}
		return obj
	}

	for _, sd := range structs {
		var mutexes []types.Object
		for _, fl := range sd.fields {
			for _, n := range fl.Names {
				obj := fieldObj(n)
				if obj == nil {
					continue
				}
				f.owner[obj] = sd.name
				if syncKindOf(obj.Type()) == syncMutex {
					mutexes = append(mutexes, obj)
				}
			}
		}
		for _, fl := range sd.fields {
			ref, pos, ok := guardedAnnotation(fl)
			if ok {
				mu := resolveGuard(sd, ref)
				if mu == nil {
					f.badAnnots = append(f.badAnnots, annotErr{pos: pos,
						msg: "guarded-by annotation names \"" + ref + "\", which is not a mutex field in this package"})
					continue
				}
				for _, n := range fl.Names {
					if obj := fieldObj(n); obj != nil {
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
				obj := fieldObj(n)
				if obj == nil || syncKindOf(obj.Type()) != notSync {
					continue
				}
				f.siblings[obj] = mutexes[0]
			}
		}
	}
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

// scanFunctions builds one scanUnit per declared function and one per
// function literal.
func (f *lockFacts) scanFunctions() {
	info := f.pkg.Info
	for _, file := range f.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			f.scanBody(fd.Body, fn)
		}
	}
}

// scanBody scans one body as a unit, queuing nested function literals
// as their own units.
func (f *lockFacts) scanBody(body *ast.BlockStmt, fn *types.Func) {
	u := &scanUnit{fn: fn}
	sc := &lockScanner{facts: f, unit: u, held: heldSet{}, killed: heldSet{}}
	sc.block(body)
	f.units = append(f.units, u)
	for _, lit := range sc.lits {
		f.scanBody(lit.Body, nil)
	}
}

// lockScanner walks one unit's statements maintaining the sequential
// lock state.
type lockScanner struct {
	facts  *lockFacts
	unit   *scanUnit
	held   heldSet
	killed heldSet
	lits   []*ast.FuncLit
}

func (sc *lockScanner) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		sc.stmt(s)
	}
}

// branch scans a conditionally-executed statement on a copy of the
// state, discarding its mutations.
func (sc *lockScanner) branch(stmts ...ast.Stmt) {
	saveHeld, saveKilled := sc.held, sc.killed
	sc.held, sc.killed = sc.held.clone(), sc.killed.clone()
	for _, s := range stmts {
		if s != nil {
			sc.stmt(s)
		}
	}
	sc.held, sc.killed = saveHeld, saveKilled
}

func (sc *lockScanner) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		sc.block(s)
	case *ast.ExprStmt:
		if sc.lockEffect(s.X, false) {
			return
		}
		sc.expr(s.X, false)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the mutex stays held for
		// the remainder of the body. Any other deferred call transfers
		// no lock state to its callee.
		if sc.lockEffect(s.Call, true) {
			return
		}
		sc.exprAsync(s.Call)
	case *ast.GoStmt:
		sc.exprAsync(s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		sc.expr(s.Cond, false)
		sc.branch(s.Body)
		if s.Else != nil {
			sc.branch(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		if s.Cond != nil {
			sc.expr(s.Cond, false)
		}
		sc.branch(s.Body, s.Post)
	case *ast.RangeStmt:
		sc.expr(s.X, false)
		sc.branch(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		if s.Tag != nil {
			sc.expr(s.Tag, false)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					sc.expr(e, false)
				}
				sc.branch(cc.Body...)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		sc.stmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sc.branch(cc.Body...)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sc.branch(append([]ast.Stmt{cc.Comm}, cc.Body...)...)
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			sc.expr(rhs, false)
		}
		for _, lhs := range s.Lhs {
			sc.lvalue(lhs)
		}
	case *ast.IncDecStmt:
		sc.lvalue(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			sc.expr(e, false)
		}
	case *ast.SendStmt:
		sc.expr(s.Chan, false)
		sc.expr(s.Value, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.expr(v, false)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		sc.stmt(s.Stmt)
	}
}

// lvalue records an assignment target: a direct field selector is a
// write of that field; any deeper shape (index, deref, nested struct)
// is recorded as reads of the fields on its access path.
func (sc *lockScanner) lvalue(lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if obj := sc.fieldOf(sel); obj != nil {
			sc.record(sel.Sel.Pos(), obj, true)
		}
		sc.expr(sel.X, false)
		return
	}
	sc.expr(lhs, false)
}

// lockEffect applies e when it is a mutex Lock/RLock/Unlock/RUnlock
// call on a trackable mutex, returning true when handled. deferred
// distinguishes `defer mu.Unlock()` (no effect) from inline unlocks.
func (sc *lockScanner) lockEffect(e ast.Expr, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	mu, op := sc.facts.mutexOp(call)
	if mu == nil {
		return false
	}
	switch op {
	case "Lock", "RLock":
		if deferred {
			return true // `defer mu.Lock()` — nonsensical; ignore
		}
		sc.unit.acquires = append(sc.unit.acquires, acquisition{
			pos: call.Pos(), mu: mu, held: sc.held.clone(), killed: sc.killed.clone(),
		})
		sc.held[mu] = true
	case "Unlock", "RUnlock":
		if deferred {
			return true
		}
		if sc.held[mu] {
			delete(sc.held, mu)
		} else {
			// Releasing a mutex this body never acquired: it must have
			// been held at entry, so entry-held no longer covers the
			// statements below this point.
			sc.killed[mu] = true
		}
	}
	return true
}

// mutexOp resolves a call as a sync mutex operation on a trackable
// object (struct field or plain variable), returning the mutex object
// and the method name.
func (f *lockFacts) mutexOp(call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	callee, _ := f.pkg.Info.Uses[sel.Sel].(*types.Func)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return nil, ""
	}
	op := callee.Name()
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	switch r := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := f.pkg.Info.Selections[r]; ok && s.Kind() == types.FieldVal && syncKindOf(s.Obj().Type()) == syncMutex {
			return s.Obj(), op
		}
	case *ast.Ident:
		if obj := objOf(f.pkg.Info, r); obj != nil && syncKindOf(obj.Type()) == syncMutex {
			return obj, op
		}
	}
	return nil, ""
}

// fieldOf resolves a selector to the struct field object it reads, or
// nil for methods, package members and qualified identifiers.
func (sc *lockScanner) fieldOf(sel *ast.SelectorExpr) types.Object {
	if s, ok := sc.facts.pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// expr records field accesses, intra-package call sites and nested
// function literals under e.
func (sc *lockScanner) expr(e ast.Expr, async bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.lits = append(sc.lits, n)
			return false
		case *ast.SelectorExpr:
			if obj := sc.fieldOf(n); obj != nil {
				sc.record(n.Sel.Pos(), obj, false)
			}
		case *ast.CallExpr:
			if callee := calleeFunc(sc.facts.pkg.Info, n); callee != nil &&
				callee.Pkg() != nil && callee.Pkg().Path() == sc.facts.pkg.Path {
				sc.unit.calls = append(sc.unit.calls, callSite{
					pos: n.Pos(), callee: callee,
					held: sc.held.clone(), killed: sc.killed.clone(), async: async,
				})
			}
		}
		return true
	})
}

// exprAsync is expr for go/defer call expressions: accesses are
// recorded with the spawn-point state (argument evaluation happens
// there), but calls transfer no lock state.
func (sc *lockScanner) exprAsync(e ast.Expr) { sc.expr(e, true) }

func (sc *lockScanner) record(pos token.Pos, obj types.Object, write bool) {
	sc.unit.accesses = append(sc.unit.accesses, fieldAccess{
		pos: pos, obj: obj, write: write,
		held: sc.held.clone(), killed: sc.killed.clone(),
	})
}

// solveEntry computes the greatest fixpoint of
//
//	entry[f][M] = AND over intra-package call sites s of f:
//	              M effectively held at s in s's caller
//
// starting optimistic (all mutexes) for functions that have at least
// one call site and pessimistic (none) for roots. Async sites (`go`,
// `defer`) contribute the empty set.
func (f *lockFacts) solveEntry() {
	// The mutex universe: everything ever acquired plus every
	// annotation target.
	universe := map[types.Object]bool{}
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

	sites := map[*types.Func][]struct {
		caller *types.Func // nil for funclit units
		cs     callSite
	}{}
	for _, u := range f.units {
		for _, cs := range u.calls {
			sites[cs.callee] = append(sites[cs.callee], struct {
				caller *types.Func
				cs     callSite
			}{u.fn, cs})
		}
	}
	for fn, ss := range sites {
		if len(ss) == 0 {
			continue
		}
		all := make(heldSet, len(universe))
		for mu := range universe {
			all[mu] = true
		}
		f.entry[fn] = all
	}
	for changed := true; changed; {
		changed = false
		for fn, ss := range sites {
			cur := f.entry[fn]
			next := heldSet{}
			for mu := range cur {
				ok := true
				for _, s := range ss {
					if s.cs.async {
						ok = false
						break
					}
					callerEntry := heldSet{}
					if s.caller != nil {
						callerEntry = f.entry[s.caller]
					}
					if !effectiveHeld(mu, s.cs.held, s.cs.killed, callerEntry) {
						ok = false
						break
					}
				}
				if ok {
					next[mu] = true
				}
			}
			if len(next) != len(cur) {
				f.entry[fn] = next
				changed = true
			}
		}
	}
}

// mutexName renders a mutex object for diagnostics: Type.field for
// struct fields, the plain name for variables.
func (f *lockFacts) mutexName(mu types.Object) string {
	if owner, ok := f.owner[mu]; ok {
		return owner + "." + mu.Name()
	}
	return mu.Name()
}

// fieldName renders a field object as Type.field.
func (f *lockFacts) fieldName(obj types.Object) string {
	if owner, ok := f.owner[obj]; ok {
		return owner + "." + obj.Name()
	}
	return obj.Name()
}

// sortedMutexNames returns the deterministic iteration order for a
// mutex set.
func (f *lockFacts) sortedMutexNames(set map[types.Object]bool) []types.Object {
	out := make([]types.Object, 0, len(set))
	for mu := range set {
		out = append(out, mu)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := f.mutexName(out[i]), f.mutexName(out[j])
		if a != b {
			return a < b
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

// entryFor returns the entry-held set for a unit.
func (f *lockFacts) entryFor(u *scanUnit) heldSet {
	if u.fn == nil {
		return heldSet{}
	}
	if e, ok := f.entry[u.fn]; ok {
		return e
	}
	return heldSet{}
}
