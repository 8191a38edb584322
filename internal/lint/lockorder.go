package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder forbids taking a package mutex while another one is held:
// it reports every Lock/RLock, and every synchronous intra-package call
// whose callee may lock, at a point where the lock model proves a
// package mutex already held. Every lock-order cycle contains such a
// site, so no AB/BA inversion passes; the price is that a consistent
// nesting is reported too, and must be restructured or suppressed with
// its reason. A double lock is the case where both mutexes are the
// same: an immediate deadlock. The race detector is silent on both.
//
// Mutex identity is instance-insensitive (the declaring field or
// variable, see locktrack.go). The held state uses the same entry-held
// fixpoint as guarded-field, so a `fooLocked` helper that takes a
// second mutex is reported inside the helper, under its callers' lock.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lock-order",
		Applies: func(m *Module, pkg *Package) bool {
			return isInternal(m, pkg.Path)
		},
		Run: runLockOrder,
	}
}

func runLockOrder(pass *Pass) {
	facts := lockFactsFor(pass.Pkg)
	may := mayAcquire(facts)
	for _, u := range facts.units {
		for _, a := range u.acquires {
			for _, h := range facts.sorted(a.held) {
				reportNested(pass, a.pos, "mutex "+facts.name(a.mu)+" is acquired", facts.name(h), h == a.mu)
			}
		}
		for _, cs := range u.calls {
			inner := may[cs.callee]
			if cs.async || len(inner) == 0 {
				continue
			}
			var names []string
			for _, mu := range facts.sorted(inner) {
				names = append(names, facts.name(mu))
			}
			what := "call to " + cs.callee.Name() + " may acquire " + strings.Join(names, ", ")
			for _, h := range facts.sorted(cs.held) {
				reportNested(pass, cs.pos, what, facts.name(h), inner[h])
			}
		}
	}
}

// reportNested reports the acquisition what, made at pos while mutex
// name is held; same says it may take that very mutex again.
func reportNested(pass *Pass, pos token.Pos, what, name string, same bool) {
	if same {
		pass.Report(pos, fmt.Sprintf("%s while %s is already held: a second Lock on the same mutex deadlocks immediately", what, name),
			"release the mutex before re-acquiring it, or split the outer critical section")
		return
	}
	pass.Report(pos, fmt.Sprintf("%s while %s is held: nested package mutexes can deadlock against any site taking them in the other order", what, name),
		"release "+name+" first, or move the inner critical section out of the outer one")
}

// mayAcquire maps each declared function to the mutexes its own body
// acquires plus, transitively, those of every function it calls
// synchronously. Function literals are not attributed to their host: a
// closure typically runs on another goroutine or at an arbitrary later
// time, so charging its acquisitions to the spawn site would fabricate
// findings.
func mayAcquire(facts *lockFacts) map[*types.Func]map[types.Object]bool {
	may := map[*types.Func]map[types.Object]bool{}
	for _, u := range facts.units {
		if u.fn == nil {
			continue
		}
		set := map[types.Object]bool{}
		for _, a := range u.acquires {
			set[a.mu] = true
		}
		may[u.fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, u := range facts.units {
			if u.fn == nil {
				continue
			}
			set := may[u.fn]
			for _, cs := range u.calls {
				if cs.async {
					continue
				}
				for mu := range may[cs.callee] {
					if !set[mu] {
						set[mu] = true
						changed = true
					}
				}
			}
		}
	}
	return may
}
