// Package phaseviol seeds wake/sleep contract violations for the
// golden tests: a Sleep decided outside the owner's registered tick
// functions, and a handle driven by a foreign component.
package phaseviol

import "repro/internal/sim"

// Pump is a fake component owning one ticker handle.
type Pump struct {
	eng *sim.Engine
	h   *sim.TickerHandle
	n   int
}

// New wires the pump up through its own method so the handle has a
// recorded owner type.
func New(eng *sim.Engine) *Pump {
	p := &Pump{eng: eng}
	p.attach()
	return p
}

func (p *Pump) attach() {
	p.h = p.eng.AddTicker(sim.PhaseInject, p.tick)
}

func (p *Pump) tick(now sim.Cycle) {
	if p.n == 0 {
		p.idle()
	}
	p.n--
}

// idle is fine: reachable from the registered tick, where the
// component has just proven itself out of work.
func (p *Pump) idle() { p.h.Sleep() }

// Push wakes on arrival (legal) but also sleeps from a path that
// never proved the tick is a no-op.
func (p *Pump) Push(v int) {
	p.n += v
	p.h.Wake()
	p.h.Sleep() // want phase-discipline "Sleep outside the owner's registered tick functions"
}

// Thief drives a handle it does not own.
type Thief struct{ victim *Pump }

func (t *Thief) Disable() {
	t.victim.h.Sleep() // want phase-discipline "owned by Pump"
}
