package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Throttler is the injection-rate control an input adapter applies per
// destination, modelled after the InfiniBand CC source response
// (Section II): a Congestion Control Table (CCT) of injection rate
// delays, a per-destination index into it (CCTI) incremented on every
// BECN and decremented periodically by the CCTI_Timer, and a Last Time
// of Injection (LTI) per destination that gates the next injection.
//
// The CCT is linear, CCT[i] = i * IRDStep, the common shape used in IB CC
// studies (the paper does not print the authors' table), so IRD computes
// it. The per-destination state is allocated at the adapter's first
// Injected or OnBECN; until then every destination reads CCTI 0 with no
// injection behind it, which is what a fresh table holds.
type Throttler struct {
	eng   *sim.Engine
	p     *Params
	label string

	numEndpoints int
	dests        []destThrottle // nil until first used
	// timers carries the armed destinations to their expiry. Every timer
	// runs for the same CCTITimer, so expiries fire in arming order and
	// one sim.Pipe serves them all without a closure per timer.
	timers *sim.Pipe[int]
	// OnExpire, when set, runs before each CCTI_Timer expiry lowers an
	// index: the one change of an IRD no call of the host's brings about.
	OnExpire func()

	// Evaluation counters.
	BECNs   int
	MaxCCTI int
}

// destThrottle is one destination's row: its CCTI, its LTI, and whether
// its CCTI decrement timer is armed.
type destThrottle struct {
	ccti  int
	lti   sim.Cycle
	armed bool
}

// neverInjected is the LTI of a destination nothing was injected to: far
// enough in the past that the first injection is never gated.
const neverInjected sim.Cycle = -1 << 30

// NewThrottler builds the throttling state for one input adapter in a
// network of numEndpoints destinations.
func NewThrottler(eng *sim.Engine, p *Params, numEndpoints int) *Throttler {
	t := &Throttler{eng: eng, p: p, numEndpoints: numEndpoints}
	t.timers = sim.NewPipe(eng, t.expire)
	return t
}

// SetTraceLabel names this throttler in traced events (e.g. "node5").
func (t *Throttler) SetTraceLabel(l string) { t.label = l }

// dest returns dst's row for writing, allocating every row at first use.
func (t *Throttler) dest(dst int) *destThrottle {
	if t.dests == nil {
		t.dests = make([]destThrottle, t.numEndpoints)
		for i := range t.dests {
			t.dests[i].lti = neverInjected
		}
	}
	return &t.dests[dst]
}

// OnBECN processes a BECN naming congested destination dst: CCTI is
// raised by CCTI_Increase (clamped to the table) and the periodic
// decrement timer is started if idle.
func (t *Throttler) OnBECN(dst int) {
	t.BECNs++
	d := t.dest(dst)
	d.ccti = min(d.ccti+t.p.CCTIIncrease, t.p.CCTEntries-1)
	if d.ccti > t.MaxCCTI {
		t.MaxCCTI = d.ccti
	}
	emit(t.p.Tracer, t.eng.Now(), trace.EvBECN, t.label, dst, d.ccti)
	t.arm(dst, d)
}

func (t *Throttler) arm(dst int, d *destThrottle) {
	if d.armed {
		return
	}
	d.armed = true
	t.timers.At(t.eng.Now()+t.p.CCTITimer, dst)
}

// expire is the CCTI_Timer tick: decrement the index and re-arm while
// it remains positive.
func (t *Throttler) expire(dst int) {
	if t.OnExpire != nil {
		t.OnExpire()
	}
	d := &t.dests[dst]
	d.armed = false
	if d.ccti > 0 {
		d.ccti--
	}
	if d.ccti > 0 {
		t.arm(dst, d)
	}
}

// IRD returns the current injection rate delay towards dst.
func (t *Throttler) IRD(dst int) sim.Cycle { return sim.Cycle(t.CCTI(dst)) * t.p.IRDStep }

// CCTI returns the current table index for dst (diagnostics).
func (t *Throttler) CCTI(dst int) int {
	if t.dests == nil {
		return 0
	}
	return t.dests[dst].ccti
}

// lti returns the last time of injection towards dst.
func (t *Throttler) lti(dst int) sim.Cycle {
	if t.dests == nil {
		return neverInjected
	}
	return t.dests[dst].lti
}

// MayInject reports whether a packet for dst may be injected now:
// the IRD must have elapsed since the destination's last injection.
func (t *Throttler) MayInject(dst int, now sim.Cycle) bool {
	return now-t.lti(dst) >= t.IRD(dst)
}

// NextInject returns the first cycle MayInject(dst) holds at the current
// CCTI (a cycle already past when it holds now).
func (t *Throttler) NextInject(dst int) sim.Cycle { return t.lti(dst) + t.IRD(dst) }

// Injected records an injection towards dst (updates LTI).
func (t *Throttler) Injected(dst int, now sim.Cycle) { t.dest(dst).lti = now }
