package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// LockOrder builds a per-package lock-acquisition graph and reports
// cycles. An edge A→B means "somewhere, B is acquired while A is
// held" — directly (nested Lock calls), or through an intra-package
// call whose callee may acquire B. Two functions that take the same
// pair of mutexes in opposite orders can deadlock the moment they run
// concurrently, and nothing dynamic catches that until the schedules
// actually collide; the race detector is silent on it.
//
// Mutex identity is instance-insensitive (the declaring field or
// variable, see locktrack.go), matching the repo's one-lock-per-struct
// designs. A self-edge — acquiring a mutex already provably held — is
// a cycle of length one: an immediate double-lock deadlock.
//
// The held state at each acquisition uses the same entry-held fixpoint
// as guarded-field, so a `fooLocked` helper that acquires a second
// mutex contributes the edge from its callers' lock, not a false root.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lock-order",
		Applies: func(m *Module, pkg *Package) bool {
			return isInternal(m, pkg.Path)
		},
		Run: runLockOrder,
	}
}

// lockEdge is one ordered pair in the acquisition graph.
type lockEdge struct {
	from, to types.Object
}

func runLockOrder(pass *Pass) {
	facts := lockFactsFor(pass.Pkg)

	// mayAcquire[f] = mutexes f's own body acquires, plus (transitively)
	// those of every function it calls synchronously. Function literals
	// are not attributed to their host: a closure typically runs on
	// another goroutine or at an arbitrary later time, so charging its
	// acquisitions to the spawn site would fabricate edges.
	unitByFn := map[*types.Func]*scanUnit{}
	may := map[*types.Func]map[types.Object]bool{}
	for _, u := range facts.units {
		if u.fn == nil {
			continue
		}
		unitByFn[u.fn] = u
		set := map[types.Object]bool{}
		for _, a := range u.acquires {
			set[a.mu] = true
		}
		may[u.fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, u := range unitByFn {
			set := may[fn]
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

	// The node set: every mutex acquired anywhere in the package, in
	// deterministic name order.
	acquired := map[types.Object]bool{}
	for _, u := range facts.units {
		for _, a := range u.acquires {
			acquired[a.mu] = true
		}
	}
	mus := facts.sortedMutexNames(acquired)
	if len(mus) == 0 {
		return
	}

	// Edges, each pinned to its first (lowest-position) witness site.
	edges := map[lockEdge]token.Pos{}
	addEdge := func(from, to types.Object, pos token.Pos) {
		e := lockEdge{from, to}
		if p, ok := edges[e]; !ok || pos < p {
			edges[e] = pos
		}
	}
	for _, u := range facts.units {
		entry := facts.entryFor(u)
		for _, a := range u.acquires {
			for _, h := range mus {
				if effectiveHeld(h, a.held, a.killed, entry) {
					addEdge(h, a.mu, a.pos)
				}
			}
		}
		for _, cs := range u.calls {
			if cs.async || len(may[cs.callee]) == 0 {
				continue
			}
			for _, h := range mus {
				if !effectiveHeld(h, cs.held, cs.killed, entry) {
					continue
				}
				for _, m := range facts.sortedMutexNames(may[cs.callee]) {
					addEdge(h, m, cs.pos)
				}
			}
		}
	}

	// Adjacency in deterministic order, then cycle enumeration: a DFS
	// from each start node that only visits nodes ranked >= the start
	// finds every elementary cycle exactly once, rooted at its
	// smallest-named mutex.
	idx := map[types.Object]int{}
	for i, m := range mus {
		idx[m] = i
	}
	adj := map[types.Object][]types.Object{}
	for _, from := range mus {
		for _, to := range mus {
			if _, ok := edges[lockEdge{from, to}]; ok {
				adj[from] = append(adj[from], to)
			}
		}
	}
	const maxCycles = 20 // a package with more has one systemic bug, not 20
	var cycles [][]types.Object
	var path []types.Object
	onPath := map[types.Object]bool{}
	var dfs func(start, cur types.Object)
	dfs = func(start, cur types.Object) {
		if len(cycles) >= maxCycles {
			return
		}
		path = append(path, cur)
		onPath[cur] = true
		for _, next := range adj[cur] {
			switch {
			case next == start:
				cycles = append(cycles, append([]types.Object(nil), path...))
			case idx[next] > idx[start] && !onPath[next]:
				dfs(start, next)
			}
		}
		delete(onPath, cur)
		path = path[:len(path)-1]
	}
	for _, m := range mus {
		dfs(m, m)
	}

	for _, cyc := range cycles {
		pass.Report(cycleReport(pass, facts, edges, cyc))
	}
}

// cycleReport renders one cycle as a diagnostic anchored at its
// lowest-position edge, with every acquisition chain cited so the
// reader sees both (or all) conflicting orders without re-deriving the
// graph.
func cycleReport(pass *Pass, facts *lockFacts, edges map[lockEdge]token.Pos, cyc []types.Object) (token.Pos, string, string) {
	if len(cyc) == 1 {
		mu := cyc[0]
		pos := edges[lockEdge{mu, mu}]
		msg := fmt.Sprintf("mutex %s is acquired at %s while already held: a second Lock on the same mutex deadlocks immediately",
			facts.mutexName(mu), shortPos(pass, pos))
		return pos, msg, "release the mutex before re-acquiring it, or split the outer critical section"
	}
	anchor := token.Pos(0)
	var chains []string
	for i, from := range cyc {
		to := cyc[(i+1)%len(cyc)]
		pos := edges[lockEdge{from, to}]
		if anchor == 0 || pos < anchor {
			anchor = pos
		}
		chains = append(chains, fmt.Sprintf("%s acquired before %s at %s",
			facts.mutexName(from), facts.mutexName(to), shortPos(pass, pos)))
	}
	msg := "lock-order cycle: " + strings.Join(chains, "; ") +
		" — two goroutines taking these in opposite orders deadlock"
	return anchor, msg, "pick one global acquisition order for these mutexes and restructure the later site to follow it"
}

// shortPos renders a position as basename:line — enough to find the
// site, short enough to keep multi-edge messages readable.
func shortPos(pass *Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
