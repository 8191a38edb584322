package lint

import (
	"go/token"
	"go/types"
	"sort"
)

// GuardedField enforces the `// guarded by <mu>` annotation on struct
// fields: every read or write of an annotated field must sit on a path
// where the lock tracker (see locktrack.go) proves the named mutex
// held — locally Lock()ed, or held at entry because every
// intra-package call site of the enclosing function holds it (the
// `fooLocked` helper convention, resolved by fixpoint rather than by
// naming).
//
// The annotation names a sibling field (`// guarded by mu`) or a field
// of another struct in the same package (`// guarded by Scheduler.mu`)
// for nested ownership designs where an outer lock covers an inner
// record. An annotation that resolves to nothing is itself a finding:
// a typo silently unguards the field.
//
// Unannotated fields are not free of scrutiny: in a struct that owns
// exactly one mutex, a plain field that is written with that mutex
// held and also touched on a path where it is not provably held is
// reported as an inference candidate — either the unlocked access is a
// race, or the field is immutable-after-construction and writing it
// under the lock is misleading; annotating (or moving the access)
// settles it in the code.
func GuardedField() *Analyzer {
	return &Analyzer{
		Name: "guarded-field",
		Applies: func(m *Module, pkg *Package) bool {
			return isInternal(m, pkg.Path)
		},
		Run: runGuardedField,
	}
}

func runGuardedField(pass *Pass) {
	facts := lockFactsFor(pass.Pkg)
	for _, bad := range facts.badAnnots {
		pass.Report(bad.pos, bad.msg,
			"name a sibling mutex field (`// guarded by mu`) or a same-package struct's field (`// guarded by Type.mu`)")
	}

	// Annotated fields: every access must hold the named mutex.
	for _, u := range facts.units {
		for _, a := range u.accesses {
			mu, ok := facts.guards[a.obj]
			if !ok || a.held[mu] {
				continue
			}
			verb := "read"
			if a.write {
				verb = "written"
			}
			pass.Report(a.pos,
				"field "+facts.name(a.obj)+" is guarded by "+facts.name(mu)+" but "+verb+" here without it held",
				"acquire "+facts.name(mu)+" around this access, or hoist the access into a caller that holds it")
		}
	}

	// Inference: unannotated sibling fields with at least one write
	// under the struct's mutex and at least one access outside it.
	type evidence struct {
		lockedWrite bool
		unheldPos   token.Pos
		unheldWrite bool
	}
	ev := map[types.Object]*evidence{}
	for _, u := range facts.units {
		for _, a := range u.accesses {
			mu, ok := facts.siblings[a.obj]
			if !ok {
				continue
			}
			e := ev[a.obj]
			if e == nil {
				e = &evidence{}
				ev[a.obj] = e
			}
			if a.held[mu] {
				if a.write {
					e.lockedWrite = true
				}
			} else if e.unheldPos == token.NoPos || a.pos < e.unheldPos {
				e.unheldPos, e.unheldWrite = a.pos, a.write
			}
		}
	}
	fields := make([]types.Object, 0, len(ev))
	for obj, e := range ev {
		if e.lockedWrite && e.unheldPos != token.NoPos {
			fields = append(fields, obj)
		}
	}
	// Deterministic report order; one finding per field (at its first
	// unlocked access) keeps a missing annotation from flooding the
	// output.
	sort.Slice(fields, func(i, j int) bool { return ev[fields[i]].unheldPos < ev[fields[j]].unheldPos })
	for _, obj := range fields {
		e := ev[obj]
		mu := facts.siblings[obj]
		verb := "read"
		if e.unheldWrite {
			verb = "written"
		}
		pass.Report(e.unheldPos,
			"field "+facts.name(obj)+" is written with "+facts.name(mu)+" held elsewhere but "+verb+" here without it: annotate it `// guarded by "+mu.Name()+"` (and fix this access) or move every mutation out of the critical section",
			"if the field is immutable after construction, writing it under the lock is misleading; otherwise this access races")
	}
}
