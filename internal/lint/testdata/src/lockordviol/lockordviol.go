// Package lockordviol seeds lock-order violations: both halves of an
// AB/BA inversion, a double lock, an inversion reached through an
// intra-package call (the mayAcquire propagation), a suppressed
// nesting, and a consistent nesting, which the rule reports too: it
// forbids holding two package mutexes at once. Package-level mutex
// variables keep the fixture invisible to the guarded-field rule, which
// only reasons about struct fields.
package lockordviol

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
	muE sync.Mutex
)

func aThenB() {
	muA.Lock()
	muB.Lock() // want lock-order "mutex muB is acquired while muA is held"
	muB.Unlock()
	muA.Unlock()
}

func bThenA() {
	muB.Lock()
	muA.Lock() // want lock-order "mutex muA is acquired while muB is held"
	muA.Unlock()
	muB.Unlock()
}

func doubleLock() {
	muC.Lock()
	muC.Lock() // want lock-order "mutex muC is acquired while muC is already held"
	muC.Unlock()
	muC.Unlock()
}

// The muD/muE inversion is only visible through the call graph: dThenE
// never mentions muE, but lockE may acquire it.
func lockE() {
	muE.Lock()
	muE.Unlock()
}

// A second lock-free caller keeps lockE's entry-held set empty, so the
// finding lands at dThenE's call site (pure mayAcquire propagation)
// rather than inside lockE via the entry fixpoint.
func lockEAlone() {
	lockE()
}

func dThenE() {
	muD.Lock()
	lockE() // want lock-order "call to lockE may acquire muE while muD is held"
	muD.Unlock()
}

func eThenD() {
	muE.Lock()
	muD.Lock() // want lock-order "mutex muD is acquired while muE is held"
	muD.Unlock()
	muE.Unlock()
}

// A nesting acknowledged with a reasoned line-level suppression.
func suppressedCThenB() {
	muC.Lock()
	//lint:ignore lock-order fixture proves suppression at the nesting site
	muB.Lock()
	muB.Unlock()
	muC.Unlock()
}

// The other half of the suppressed pair is still reported.
func bThenC() {
	muB.Lock()
	muC.Lock() // want lock-order "mutex muC is acquired while muB is held"
	muC.Unlock()
	muB.Unlock()
}

// A consistent order (muA is never taken under muD) is reported all
// the same: the rule keeps no graph to tell it apart from an inversion.
func cleanNested() {
	muA.Lock()
	muD.Lock() // want lock-order "mutex muD is acquired while muA is held"
	muD.Unlock()
	muA.Unlock()
}
