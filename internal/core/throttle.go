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
type Throttler struct {
	eng   *sim.Engine
	p     *Params
	label string

	cct   []sim.Cycle // cct[i] = inter-packet injection rate delay
	ccti  []int       // per destination
	lti   []sim.Cycle // last time of injection per destination
	armed []bool      // CCTI decrement timer armed per destination
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

// NewThrottler builds the throttling state for one input adapter in a
// network of numEndpoints destinations. The CCT is linear:
// cct[i] = i * IRDStep, the common shape used in IB CC studies (the
// paper does not print the authors' table).
func NewThrottler(eng *sim.Engine, p *Params, numEndpoints int) *Throttler {
	t := &Throttler{
		eng:   eng,
		p:     p,
		cct:   make([]sim.Cycle, p.CCTEntries),
		ccti:  make([]int, numEndpoints),
		lti:   make([]sim.Cycle, numEndpoints),
		armed: make([]bool, numEndpoints),
	}
	t.timers = sim.NewPipe(eng, t.expire)
	for i := range t.cct {
		t.cct[i] = sim.Cycle(i) * p.IRDStep
	}
	for i := range t.lti {
		t.lti[i] = -1 << 30 // allow immediate first injection
	}
	return t
}

// SetTraceLabel names this throttler in traced events (e.g. "node5").
func (t *Throttler) SetTraceLabel(l string) { t.label = l }

// OnBECN processes a BECN naming congested destination dst: CCTI is
// raised by CCTI_Increase (clamped to the table) and the periodic
// decrement timer is started if idle.
func (t *Throttler) OnBECN(dst int) {
	t.BECNs++
	t.ccti[dst] += t.p.CCTIIncrease
	if t.ccti[dst] >= len(t.cct) {
		t.ccti[dst] = len(t.cct) - 1
	}
	if t.ccti[dst] > t.MaxCCTI {
		t.MaxCCTI = t.ccti[dst]
	}
	emit(t.p.Tracer, t.eng.Now(), trace.EvBECN, t.label, dst, t.ccti[dst])
	t.arm(dst)
}

func (t *Throttler) arm(dst int) {
	if t.armed[dst] {
		return
	}
	t.armed[dst] = true
	t.timers.At(t.eng.Now()+t.p.CCTITimer, dst)
}

// expire is the CCTI_Timer tick: decrement the index and re-arm while
// it remains positive.
func (t *Throttler) expire(dst int) {
	if t.OnExpire != nil {
		t.OnExpire()
	}
	t.armed[dst] = false
	if t.ccti[dst] > 0 {
		t.ccti[dst]--
	}
	if t.ccti[dst] > 0 {
		t.arm(dst)
	}
}

// IRD returns the current injection rate delay towards dst.
func (t *Throttler) IRD(dst int) sim.Cycle { return t.cct[t.ccti[dst]] }

// CCTI returns the current table index for dst (diagnostics).
func (t *Throttler) CCTI(dst int) int { return t.ccti[dst] }

// MayInject reports whether a packet for dst may be injected now:
// the IRD must have elapsed since the destination's last injection.
func (t *Throttler) MayInject(dst int, now sim.Cycle) bool {
	return now-t.lti[dst] >= t.IRD(dst)
}

// NextInject returns the first cycle MayInject(dst) holds at the current
// CCTI (a cycle already past when it holds now).
func (t *Throttler) NextInject(dst int) sim.Cycle { return t.lti[dst] + t.IRD(dst) }

// Injected records an injection towards dst (updates LTI).
func (t *Throttler) Injected(dst int, now sim.Cycle) { t.lti[dst] = now }
