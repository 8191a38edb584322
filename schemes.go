package ccfit

import (
	"repro/internal/core"
	"repro/internal/experiments"
)

// OneQ returns the single-queue baseline: no HoL-blocking reduction
// and no congestion control ("1Q" in the paper's evaluation).
func OneQ() Params { return core.Preset1Q() }

// FBICM returns congested-flow isolation alone: NFQ + 2 CFQs per port,
// CAMs at input and output ports, hop-by-hop congestion-information
// propagation, per-CFQ Stop/Go flow control — no marking or throttling.
func FBICM() Params { return core.PresetFBICM() }

// ITh returns InfiniBand-style injection throttling over VOQsw
// switches: two-threshold congestion state per output port, FECN
// marking (85%), BECN notification, and CCT/CCTI/Timer/LTI rate
// control at the sources.
func ITh() Params { return core.PresetITh() }

// CCFIT returns the paper's contribution: congested-flow isolation
// combined with injection throttling. Marking is driven by root-CFQ
// occupancy; throttling releases isolation resources before they run
// out.
func CCFIT() Params { return core.PresetCCFIT() }

// VOQnet returns network-level virtual output queueing: one queue per
// destination at every port — the near-ideal, memory-hungry reference.
func VOQnet() Params { return core.PresetVOQnet() }

// DBBM returns destination-based buffer management (dest mod N
// queues), an extra baseline beyond the paper's evaluated set.
func DBBM() Params { return core.PresetDBBM() }

// VOQswOnly returns switch-level virtual output queueing with no
// congestion control: the queue organisation ITh runs over, as its own
// baseline.
func VOQswOnly() Params { return core.PresetVOQswOnly() }

// OBQA returns output-based queue assignment (related work [26]): an
// extra fat-tree-oriented baseline using next-hop output ports.
func OBQA() Params { return core.PresetOBQA() }

// Scheme resolves a preset by its paper name, the Name of one of
// Schemes().
func Scheme(name string) (Params, error) { return experiments.SchemeByName(name) }

// Schemes returns every preset in presentation order.
func Schemes() []Params { return experiments.AllSchemes() }
