package ccfit

import (
	"io"

	"repro/internal/trace"
)

// Tracing: attach a tracer via Params.Tracer to observe the
// congestion-management protocol (detections, CFQ lifecycle, Stop/Go,
// congestion state, marking, BECNs). All constructors below return
// values implementing the Tracer interface expected by Params.Tracer.
type (
	// TraceEvent is one congestion-management event.
	TraceEvent = trace.Event
	// TraceKind enumerates event types (EvDetect, EvStop, ...).
	TraceKind = trace.EventKind
	// Tracer observes events; see NewTraceRing and friends.
	Tracer = trace.Tracer
	// TraceRing retains the most recent events.
	TraceRing = trace.Ring
)

// Re-exported event kinds.
const (
	EvDetect        = trace.EvDetect
	EvLazyAlloc     = trace.EvLazyAlloc
	EvPropagate     = trace.EvPropagate
	EvStop          = trace.EvStop
	EvGo            = trace.EvGo
	EvDealloc       = trace.EvDealloc
	EvDemote        = trace.EvDemote
	EvCongestionOn  = trace.EvCongestionOn
	EvCongestionOff = trace.EvCongestionOff
	EvMark          = trace.EvMark
	EvBECN          = trace.EvBECN
	EvExhaust       = trace.EvExhaust
)

// NewTraceRing returns a tracer retaining the last capacity events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// NewTraceWriter returns a tracer printing one line per event to w.
func NewTraceWriter(w io.Writer) Tracer { return trace.NewWriter(w) }

// TraceOnly filters a tracer down to the listed event kinds.
func TraceOnly(next Tracer, kinds ...TraceKind) Tracer {
	return trace.Only(next, kinds...)
}

// FormatTraceEvent renders an event as a human-readable line.
func FormatTraceEvent(ev TraceEvent) string { return trace.Format(ev) }
