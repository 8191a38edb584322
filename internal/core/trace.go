package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// emit is the internal helper every component uses.
func emit(tr trace.Tracer, at sim.Cycle, kind trace.EventKind, where string, dest, arg int) {
	if tr != nil {
		tr.Trace(trace.Event{At: at, Kind: kind, Where: where, Dest: dest, Arg: arg})
	}
}
