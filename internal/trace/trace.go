// Package trace is the congestion-management event vocabulary (Event,
// EventKind, the Tracer interface core emits through) and the ready-made
// tracers: a bounded ring buffer for post-mortem inspection, a line
// writer for live logs, and a kind filter (Only). Attach one via
// Params.Tracer before building a network.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// EventKind enumerates the congestion-management events a Tracer can
// observe. These are the paper's protocol events (Figs. 3 and 4): the
// rate is low (no per-packet events except marking), so tracing whole
// runs is cheap.
type EventKind uint8

const (
	// EvDetect: local congestion detection allocated a CFQ (Event #2).
	EvDetect EventKind = iota
	// EvLazyAlloc: a CFQ was allocated because downstream announced
	// the congestion point.
	EvLazyAlloc
	// EvPropagate: congestion information sent upstream (CFQAlloc).
	EvPropagate
	// EvStop / EvGo: per-CFQ Stop/Go flow control (Events #4/#5).
	EvStop
	EvGo
	// EvDealloc: CFQ and CAM line released (Event #6).
	EvDealloc
	// EvDemote: a root line demoted after a downstream announcement.
	EvDemote
	// EvCongestionOn / EvCongestionOff: an output port entered or left
	// the congestion state (two-threshold scheme).
	EvCongestionOn
	EvCongestionOff
	// EvMark: a packet was FECN-marked (Event #7).
	EvMark
	// EvBECN: an input adapter processed a BECN (CCTI raised).
	EvBECN
	// EvExhaust: a congested head found no free CFQ/CAM line.
	EvExhaust
)

var eventNames = [...]string{
	EvDetect:        "detect",
	EvLazyAlloc:     "lazy-alloc",
	EvPropagate:     "propagate",
	EvStop:          "stop",
	EvGo:            "go",
	EvDealloc:       "dealloc",
	EvDemote:        "demote",
	EvCongestionOn:  "congestion-on",
	EvCongestionOff: "congestion-off",
	EvMark:          "mark",
	EvBECN:          "becn",
	EvExhaust:       "exhaust",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "event(?)"
}

// Event is one traced congestion-management event.
type Event struct {
	At   sim.Cycle
	Kind EventKind
	// Where identifies the component: a device label such as
	// "sw<0,3>:p2" or "node17".
	Where string
	// Dest is the congested destination involved (-1 if n/a).
	Dest int
	// Arg carries a kind-specific value: CFQ index for CFQ events,
	// CCTI for EvBECN, output port for congestion-state events.
	Arg int
}

// Tracer observes congestion-management events. Implementations must
// be cheap; they are called from the simulation hot path (guarded by a
// nil check). Ring, Writer and Only are the ready-made ones.
type Tracer interface {
	Trace(ev Event)
}

// Ring keeps the most recent capacity events.
type Ring struct {
	events []Event
	next   int
	filled bool
	total  int
}

// NewRing returns a ring tracer holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return &Ring{events: make([]Event, capacity)}
}

// Trace implements Tracer.
func (r *Ring) Trace(ev Event) {
	r.events[r.next] = ev
	r.next++
	r.total++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Total returns how many events were traced (including evicted ones).
func (r *Ring) Total() int { return r.total }

// Events returns the retained events in arrival order.
func (r *Ring) Events() []Event {
	if !r.filled {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Writer emits one formatted line per event.
type Writer struct {
	w io.Writer
}

// NewWriter returns a tracer printing to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Trace implements Tracer.
func (t *Writer) Trace(ev Event) {
	fmt.Fprintln(t.w, Format(ev))
}

// Format renders an event as a human-readable line.
func Format(ev Event) string {
	switch ev.Kind {
	case EvCongestionOn, EvCongestionOff:
		return fmt.Sprintf("%9.3fms %-14s %s", sim.MSFromCycles(ev.At), ev.Kind, ev.Where)
	case EvBECN:
		return fmt.Sprintf("%9.3fms %-14s %s dest=%d ccti=%d", sim.MSFromCycles(ev.At), ev.Kind, ev.Where, ev.Dest, ev.Arg)
	case EvMark:
		return fmt.Sprintf("%9.3fms %-14s %s dest=%d pkt=%d", sim.MSFromCycles(ev.At), ev.Kind, ev.Where, ev.Dest, ev.Arg)
	case EvExhaust:
		return fmt.Sprintf("%9.3fms %-14s %s dest=%d", sim.MSFromCycles(ev.At), ev.Kind, ev.Where, ev.Dest)
	default:
		return fmt.Sprintf("%9.3fms %-14s %s dest=%d cfq=%d", sim.MSFromCycles(ev.At), ev.Kind, ev.Where, ev.Dest, ev.Arg)
	}
}

// Only returns a tracer forwarding to next the events of the listed
// kinds.
func Only(next Tracer, kinds ...EventKind) Tracer {
	if next == nil {
		panic("trace: filter needs a tracer")
	}
	f := &only{next: next}
	for _, k := range kinds {
		f.kinds |= 1 << k
	}
	return f
}

type only struct {
	next  Tracer
	kinds uint32 // bit k set: forward EventKind k
}

func (f *only) Trace(ev Event) {
	if f.kinds&(1<<ev.Kind) != 0 {
		f.next.Trace(ev)
	}
}
