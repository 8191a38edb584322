// Package hotviol seeds hot-path allocation violations for the golden
// tests: composite literals, growing appends, closures and interface
// boxing inside per-cycle tick functions and their callees.
package hotviol

import "repro/internal/sim"

type event struct{ id, val int }

// queue is a discipline seen through an interface, the way hosts see
// their port queue organisations.
type queue interface {
	Each(visit func(int))
}

// Port is a fake per-cycle component. buf is preallocated scratch.
type Port struct {
	eng    *sim.Engine
	h      *sim.TickerHandle
	buf    []int
	events []event
	q      queue
}

// New registers a closure ticker whose body is a hot region.
func New(eng *sim.Engine) *Port {
	p := &Port{eng: eng, buf: make([]int, 0, 64)}
	p.h = eng.AddTicker(sim.PhaseDevice, func(now sim.Cycle) {
		p.events = append(p.events, event{id: 2, val: int(now)}) // want hotpath-alloc "composite literal"
		// A visitor closure handed to an interface method inside a
		// registered tick: it only looks non-escaping — the dynamic call
		// hides the callee from escape analysis, so it is heap-allocated
		// every cycle.
		p.q.Each(func(v int) { p.buf = append(p.buf, v) }) // want hotpath-alloc "closure passed to an interface method"
	})
	return p
}

// Tick is hot by name; drain and update are hot as its intra-package
// callees.
func (p *Port) Tick(now sim.Cycle) {
	p.drain(now)
	p.update(now)
}

func (p *Port) drain(now sim.Cycle) {
	p.events = append(p.events, event{id: 1, val: int(now)}) // want hotpath-alloc "composite literal"
	flush := func() { p.buf = p.buf[:0] }                    // want hotpath-alloc "closure"
	flush()
}

// update grows an unsized local and boxes via its callee.
func (p *Port) update(now sim.Cycle) {
	var scratch []int
	scratch = append(scratch, int(now)) // want hotpath-alloc "append to a non-preallocated slice"
	p.buf = scratch
	p.record(now)
}

func (p *Port) record(now sim.Cycle) {
	sink(now) // want hotpath-alloc "implicit conversion to interface argument"
}

func sink(v any) { _ = v }

// Step sticks to the sanctioned patterns: make-with-capacity locals
// and field-backed scratch reuse allocate nothing per cycle.
func (p *Port) Step() {
	tmp := make([]int, 0, 8)
	tmp = append(tmp, 1)
	p.buf = p.buf[:0]
	p.buf = append(p.buf, tmp...)
	if len(p.buf) > 8 {
		panic("hotviol: scratch overflow") // panic arguments are exempt
	}
}
