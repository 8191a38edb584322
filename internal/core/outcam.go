package core

import (
	"fmt"

	"repro/internal/link"
)

// OutCAM is the CAM a switch keeps at each output port (and an input
// adapter at its uplink) to mirror the congestion state of the
// downstream input port it feeds: one line per downstream CFQ, holding
// the congestion point's destination set and the Stop/Go state of the
// per-CFQ flow control. It is maintained exclusively by the control
// messages the downstream input port sends upstream (Section III-A:
// "CCFIT requires a CAM per output port, in order to propagate
// congestion information from a given input port CAMs to upstream
// input port CAMs").
type OutCAM struct {
	lines  []outLine
	active int // valid lines, so lookups on an empty CAM skip the scan
	// stats
	Allocs, Deallocs int
}

type outLine struct {
	valid   bool
	dests   []int
	stopped bool
}

// NewOutCAM returns an output CAM sized for a downstream port with
// numCFQs congested-flow queues.
func NewOutCAM(numCFQs int) *OutCAM {
	return &OutCAM{lines: make([]outLine, numCFQs)}
}

// Handle applies a control message from the downstream input port.
// Messages for unknown/stale lines are ignored: with in-order delivery
// that only happens across a dealloc/realloc boundary, where ignoring
// is the safe behaviour.
func (o *OutCAM) Handle(m link.Control) {
	switch m.Kind {
	case link.CFQAlloc:
		if m.CFQ < 0 || m.CFQ >= len(o.lines) {
			return
		}
		// Copy into the line's own storage (kept across deallocations):
		// m.Dests belongs to the link.
		if !o.lines[m.CFQ].valid {
			o.active++
		}
		o.lines[m.CFQ] = outLine{valid: true, dests: append(o.lines[m.CFQ].dests[:0], m.Dests...)}
		o.Allocs++
	case link.CFQStop:
		if o.valid(m.CFQ) {
			o.lines[m.CFQ].stopped = true
		}
	case link.CFQGo:
		if o.valid(m.CFQ) {
			o.lines[m.CFQ].stopped = false
		}
	case link.CFQDealloc:
		if o.valid(m.CFQ) {
			o.lines[m.CFQ] = outLine{dests: o.lines[m.CFQ].dests[:0]}
			o.active--
			o.Deallocs++
		}
	default:
		panic(fmt.Sprintf("core: OutCAM cannot handle %v", m.Kind))
	}
}

func (o *OutCAM) valid(i int) bool { return i >= 0 && i < len(o.lines) && o.lines[i].valid }

// Lookup finds the line covering dest. It returns the Stop state and
// the downstream CFQ index for direct delivery.
func (o *OutCAM) Lookup(dest int) (stopped bool, downCFQ int, ok bool) {
	if o.active == 0 {
		return false, -1, false
	}
	for i := range o.lines {
		if !o.lines[i].valid {
			continue
		}
		if destIn(o.lines[i].dests, dest) {
			return o.lines[i].stopped, i, true
		}
	}
	return false, -1, false
}

// ActiveLines returns the number of valid lines.
func (o *OutCAM) ActiveLines() int { return o.active }
