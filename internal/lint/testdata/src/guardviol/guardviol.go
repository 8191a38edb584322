// Package guardviol seeds guarded-field violations: annotated fields
// accessed without their mutex, an annotation that resolves to
// nothing, the Type.mu outer-lock form, and an unannotated field the
// rule flags by inference. The clean shapes (locked accesses, the
// *Locked helper convention resolved by call-graph fixpoint, and a
// suppressed read) must stay silent.
package guardviol

import "sync"

// counter is the annotated pair: n's accesses are checked against mu.
type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	m  int // guarded by wrongName -- want guarded-field "not a mutex field"
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) bad() int {
	return c.n // want guarded-field "guarded by counter.mu but read here without it held"
}

func (c *counter) badWrite() {
	c.n = 0 // want guarded-field "guarded by counter.mu but written here without it held"
}

func (c *counter) suppressedPeek() int {
	//lint:ignore guarded-field monitoring read tolerates a stale value
	return c.n
}

// addLocked never locks itself: every call site holds mu, so the
// entry-held fixpoint proves the access safe without naming magic.
func (c *counter) addLocked(d int) {
	c.n += d
}

func (c *counter) add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(d)
}

func (c *counter) addTwice(d int) {
	c.mu.Lock()
	c.addLocked(d)
	c.addLocked(d)
	c.mu.Unlock()
}

// registry/entry exercise the Type.mu form: an outer lock guarding an
// inner record's field.
type registry struct {
	mu      sync.Mutex
	entries []*entry
}

type entry struct {
	hits int // guarded by registry.mu
}

func (r *registry) touch(e *entry) {
	r.mu.Lock()
	e.hits++
	r.mu.Unlock()
}

func poke(e *entry) {
	e.hits++ // want guarded-field "guarded by registry.mu but written here without it held"
}

// gauge has no annotation at all: val is written under the struct's
// only mutex and read outside it, so the rule flags it for annotation.
type gauge struct {
	mu  sync.Mutex
	val int
}

func (g *gauge) set(v int) {
	g.mu.Lock()
	g.val = v
	g.mu.Unlock()
}

func (g *gauge) peek() int {
	return g.val // want guarded-field "written with gauge.mu held elsewhere"
}

// The shapes below pin the statement walker: each branch of an
// if/switch/select/for is scanned on a copy of the lock state, an
// Unlock releases a mutex held at entry as well as one taken locally,
// and a deferred call hands its callee no lock state.

// ledger repeats the annotated pair, so these shapes leave counter's
// entry sets alone.
type ledger struct {
	mu  sync.Mutex
	sum int // guarded by mu
}

// releaseLocked is entered with mu held (its only caller holds it) and
// releases it: the write after the Unlock races.
func (l *ledger) releaseLocked() {
	l.mu.Unlock()
	l.sum = 0 // want guarded-field "guarded by ledger.mu but written here without it held"
}

func (l *ledger) release() {
	l.mu.Lock()
	l.releaseLocked()
}

// addChecked is the early-exit shape: the Unlock in the branch does not
// leak into the fallthrough path, which still holds mu.
func (l *ledger) addChecked(d int) {
	l.mu.Lock()
	if d < 0 {
		l.mu.Unlock()
		return
	}
	l.sum += d
	l.mu.Unlock()
}

// addMaybe locks only inside a branch: the Lock does not leak out.
func (l *ledger) addMaybe(d int, lock bool) {
	if lock {
		l.mu.Lock()
	}
	l.sum += d // want guarded-field "guarded by ledger.mu but written here without it held"
	if lock {
		l.mu.Unlock()
	}
}

// settle releases mu in one switch case and one select arm; the arms
// after them start from the state before the switch or select.
func (l *ledger) settle(k int, ch chan int) {
	l.mu.Lock()
	switch k {
	case 0:
		l.mu.Unlock()
		l.sum = 0 // want guarded-field "guarded by ledger.mu but written here without it held"
		return
	default:
		l.sum++
	}
	select {
	default:
		l.mu.Unlock()
		l.sum = 1 // want guarded-field "guarded by ledger.mu but written here without it held"
		return
	case v := <-ch:
		l.sum += v
	}
	l.mu.Unlock()
}

// drain drops mu around each step of a loop body.
func (l *ledger) drain(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < n; i++ {
		l.mu.Unlock()
		l.sum-- // want guarded-field "guarded by ledger.mu but written here without it held"
		l.mu.Lock()
	}
}

// clearLocked's only call site is a defer, which runs after reset has
// released mu: the deferred call hands it no lock state.
func (l *ledger) clearLocked() {
	l.sum = 0 // want guarded-field "guarded by ledger.mu but written here without it held"
}

func (l *ledger) reset() {
	l.mu.Lock()
	defer l.clearLocked()
	l.mu.Unlock()
}
