package core

import (
	"math/rand"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MarkState tracks the congestion state of one output port via the
// two-threshold scheme of Section III-C: a counter of queues whose
// occupancy is above the High threshold (root CFQs for CCFIT, VOQs for
// ITh). The port is in the congestion state while the counter is
// positive; packets crossing it are then FECN-marked subject to the
// Packet_Size and Marking_Rate parameters.
type MarkState struct {
	p     *Params
	rng   *rand.Rand
	eng   *sim.Engine
	label string
	count int
	// Marked / Crossings are evaluation counters.
	Marked    int
	Crossings int
}

// NewMarkState returns the marking controller for one output port.
// rng drives the probabilistic Marking_Rate decision; it must be a
// dedicated deterministic stream. eng supplies trace timestamps and
// may be nil when tracing is off.
func NewMarkState(p *Params, rng *rand.Rand, eng *sim.Engine, label string) *MarkState {
	return &MarkState{p: p, rng: rng, eng: eng, label: label}
}

func (m *MarkState) now() sim.Cycle {
	if m.eng == nil {
		return 0
	}
	return m.eng.Now()
}

// Crossed registers a queue transitioning above (true) or back below
// (false) the High/Low hysteresis band.
func (m *MarkState) Crossed(above bool) {
	if above {
		m.count++
		m.Crossings++
		if m.count == 1 {
			emit(m.p.Tracer, m.now(), trace.EvCongestionOn, m.label, -1, m.count)
		}
		return
	}
	m.count--
	if m.count < 0 {
		panic("core: congestion-state counter underflow (unbalanced Crossed calls)")
	}
	if m.count == 0 {
		emit(m.p.Tracer, m.now(), trace.EvCongestionOff, m.label, -1, 0)
	}
}

// Congested reports whether the port is in the congestion state.
func (m *MarkState) Congested() bool { return m.count > 0 }

// MaybeMark applies the FECN marking decision to a packet crossing
// this output port and reports whether it marked. Marking requires the
// congestion state, the Packet_Size minimum, and a Marking_Rate coin
// flip; BECNs are never marked.
func (m *MarkState) MaybeMark(p *pkt.Packet) bool {
	if !m.p.MarkingEnabled || m.count == 0 {
		return false
	}
	if p.Kind == pkt.BECN || p.Size < m.p.MinMarkSize || p.FECN {
		return false
	}
	if m.rng.Float64() >= m.p.MarkingRate {
		return false
	}
	p.FECN = true
	m.Marked++
	emit(m.p.Tracer, m.now(), trace.EvMark, m.label, p.Dst, int(p.ID))
	return true
}
