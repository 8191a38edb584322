package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/endnode"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// forever is the stall/pause horizon used for Duration 0 ("rest of
// run"); far beyond any simulated time yet safe from Cycle overflow.
const forever sim.Cycle = 1 << 56

// Stats counts what the injector actually did — diagnostics and the
// manifest record of a faulted run.
type Stats struct {
	Degrades   int // link-degrade windows applied
	Flaps      int // link-flap windows applied
	Condemned  int // in-flight packets condemned by drop-policy flaps
	NoiseSent  int // CtlNoise messages injected
	Corrupted  int // control messages scrambled
	Duplicated int // control messages doubled
	Delayed    int // control messages slowed
	Stalls     int // switch-stall windows applied
	Pauses     int // node-pause windows applied
}

// Injector schedules scripted faults onto a wired network. Build one
// per run via network.(*Network).InjectFaults — the network resolves
// script targets (device ids) to concrete components and calls the
// typed methods below before the simulation starts.
//
// Determinism: the injector owns a private RNG seeded from
// (run seed, script seed) and never touches the engine's shared RNG
// sequence, so the presence of fault events cannot reorder any other
// component's random draws. All scheduling happens at construction
// time through engine events pinned to script cycles; replaying the
// same seed + script is cycle-exact.
type Injector struct {
	eng   *sim.Engine
	rng   *rand.Rand
	stats Stats
}

// NewInjector builds an injector whose random stream is derived from
// the run seed and the script seed only.
func NewInjector(eng *sim.Engine, runSeed, scriptSeed int64) *Injector {
	// splitmix-style fold: decorrelate from the engine's seed-derived
	// streams even when scriptSeed is 0.
	x := uint64(runSeed) ^ 0x9e3779b97f4a7c15 ^ (uint64(scriptSeed) * 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return &Injector{eng: eng, rng: rand.New(rand.NewSource(int64(x)))}
}

// Stats returns what the injector has done so far.
func (in *Injector) Stats() Stats { return in.stats }

// ScheduleLinkDegrade reduces h's bandwidth to bpc over [at, at+dur).
// dur 0 degrades for the rest of the run.
func (in *Injector) ScheduleLinkDegrade(at, dur sim.Cycle, h *link.Half, bpc int) {
	in.eng.At(at, func() {
		in.stats.Degrades++
		h.Degrade(bpc)
	})
	if dur > 0 {
		in.eng.At(at+dur, h.Restore)
	}
}

// ScheduleLinkFlap takes h down over [at, at+dur); drop selects the
// lossless-aware in-flight policy (see the package comment). dur 0
// fails the link for the rest of the run.
func (in *Injector) ScheduleLinkFlap(at, dur sim.Cycle, h *link.Half, drop bool) {
	in.eng.At(at, func() {
		h.SetDown(true)
		in.stats.Flaps++
		if drop {
			in.stats.Condemned += h.DropInFlight()
		}
	})
	if dur > 0 {
		in.eng.At(at+dur, func() { h.SetDown(false) })
	}
}

// ScheduleSwitchStall freezes sw's arbitration over [at, at+dur).
func (in *Injector) ScheduleSwitchStall(at, dur sim.Cycle, sw *switchfab.Switch) {
	if dur <= 0 {
		dur = forever
	}
	in.eng.At(at, func() {
		in.stats.Stalls++
		sw.Stall(dur)
	})
}

// ScheduleNodePause freezes nd's transmit side over [at, at+dur).
func (in *Injector) ScheduleNodePause(at, dur sim.Cycle, nd *endnode.Node) {
	if dur <= 0 {
		dur = forever
	}
	in.eng.At(at, func() {
		in.stats.Pauses++
		nd.Pause(dur)
	})
}

// ScheduleCtlNoise injects one random CFQ-protocol message every
// `period` cycles over [at, at+dur) into the targeted switches: a
// random port of a random target receives a random alloc/stop/go/
// dealloc with a CFQ index fuzzed across valid, boundary, and invalid
// values — the generalized chaos scenario. numEndpoints bounds the
// destination sets minted for fake allocs; numCFQs bounds the valid
// index range. dur 0 sprays for the rest of the run.
func (in *Injector) ScheduleCtlNoise(at, dur sim.Cycle, targets []*switchfab.Switch, port int, period int64, numEndpoints, numCFQs int) {
	if len(targets) == 0 {
		panic("fault: ctl-noise needs at least one switch")
	}
	if period <= 0 {
		period = 97
	}
	end := at + dur
	if dur <= 0 {
		end = forever
	}
	var tick func()
	tick = func() {
		now := in.eng.Now()
		if now >= end {
			return
		}
		sw := targets[in.rng.Intn(len(targets))]
		p := port
		if p < 0 {
			p = in.rng.Intn(sw.NumPorts())
		}
		kinds := [...]link.CtlKind{link.CFQAlloc, link.CFQStop, link.CFQGo, link.CFQDealloc}
		m := link.Control{
			Kind: kinds[in.rng.Intn(len(kinds))],
			// Fuzzed index: valid lines, boundaries, and out-of-range.
			CFQ: in.rng.Intn(numCFQs+4) - 2,
		}
		if m.Kind == link.CFQAlloc {
			m.Dest = in.rng.Intn(numEndpoints)
		}
		sw.ControlReceiver(p).ReceiveControl(m)
		in.stats.NoiseSent++
		in.eng.At(now+sim.Cycle(period), tick)
	}
	in.eng.At(at, tick)
}

// ScheduleCtlTamper installs a control-channel fault on h over
// [at, at+dur): kind selects corrupt / duplicate / delay, prob the
// per-message probability (0 means 1.0), delay the extra latency for
// CtlDelay. Credit messages always pass untouched — tampering with
// the credit loop deadlocks a lossless fabric by construction and
// would test nothing but the deadlock. Windows on the same link must
// not overlap (the later installation wins).
func (in *Injector) ScheduleCtlTamper(at, dur sim.Cycle, h *link.Half, kind Kind, prob float64, delay sim.Cycle, numCFQs int) {
	if prob <= 0 {
		prob = 1.0
	}
	var fn link.TamperFunc
	switch kind {
	case CtlCorrupt:
		fn = func(m link.Control) ([]link.Control, sim.Cycle) {
			if m.Kind == link.Credit || in.rng.Float64() >= prob {
				return []link.Control{m}, 0
			}
			in.stats.Corrupted++
			m.CFQ = in.rng.Intn(numCFQs+4) - 2
			return []link.Control{m}, 0
		}
	case CtlDuplicate:
		fn = func(m link.Control) ([]link.Control, sim.Cycle) {
			if m.Kind == link.Credit || in.rng.Float64() >= prob {
				return []link.Control{m}, 0
			}
			in.stats.Duplicated++
			return []link.Control{m, m}, 0
		}
	case CtlDelay:
		fn = func(m link.Control) ([]link.Control, sim.Cycle) {
			if m.Kind == link.Credit || in.rng.Float64() >= prob {
				return []link.Control{m}, 0
			}
			in.stats.Delayed++
			return []link.Control{m}, delay
		}
	default:
		panic(fmt.Sprintf("fault: %q is not a control-tamper kind", kind))
	}
	in.eng.At(at, func() { h.SetControlTamper(fn) })
	if dur > 0 {
		in.eng.At(at+dur, func() { h.SetControlTamper(nil) })
	}
}
