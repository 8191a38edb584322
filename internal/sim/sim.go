// Package sim provides the cycle-level simulation engine used by every
// other component of the CCFIT reproduction: a deterministic clock, a
// calendar event queue for scheduled callbacks, per-cycle ticking (sources,
// then devices) with wake/sleep component elision, and seeded random-number
// streams.
//
// One cycle is the time needed to move one flit (FlitBytes bytes) across
// a baseline 2.5 GB/s link, i.e. 25.6 ns. All latencies, bandwidths and
// timeouts in the simulator are expressed in cycles; helpers convert
// from wall-clock units.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Cycle is a point in simulated time (or a duration), measured in cycles.
type Cycle int64

// Never is the deadline of something only an event can bring about: it
// compares later than every cycle a run reaches.
const Never Cycle = math.MaxInt64

// FlitBytes is the number of bytes moved per cycle by a baseline link.
const FlitBytes = 64

// BaseLinkBytesPerSec is the bandwidth of a baseline 2.5 GB/s link.
const BaseLinkBytesPerSec = 2.5e9

// CycleNS is the wall-clock duration of one cycle in nanoseconds.
const CycleNS = FlitBytes / BaseLinkBytesPerSec * 1e9 // 25.6 ns

// CyclesFromNS converts a duration in nanoseconds to cycles (rounded).
func CyclesFromNS(ns float64) Cycle {
	return Cycle(math.Round(ns / CycleNS))
}

// CyclesFromMS converts a duration in milliseconds to cycles (rounded).
func CyclesFromMS(ms float64) Cycle {
	return CyclesFromNS(ms * 1e6)
}

// NSFromCycles converts a cycle count to nanoseconds.
func NSFromCycles(c Cycle) float64 {
	return float64(c) * CycleNS
}

// MSFromCycles converts a cycle count to milliseconds.
func MSFromCycles(c Cycle) float64 {
	return NSFromCycles(c) / 1e6
}

// Phase identifies one of the two per-cycle orderings the model has:
// sources act before devices. Events scheduled with At/After always fire
// before PhaseInject of their cycle, so arrivals and control messages are
// visible to the same-cycle logic.
type Phase int

const (
	// PhaseInject runs traffic generation and source-side admission.
	PhaseInject Phase = iota
	// PhaseDevice runs every switch and end node, one tick each: queue
	// post-processing, arbitration, then threshold and CAM housekeeping —
	// an order inside a device, which no other device's tick can observe
	// (DESIGN.md §5). Observers registered last tick last.
	PhaseDevice

	numPhases
)

type event struct {
	at  Cycle
	seq uint64 // tie-break: FIFO among same-cycle events
	fn  func()
}

// wheelSize is the calendar's horizon in cycles, a power of two past
// link delay + MTU serialisation: only timers and windows overflow it.
const wheelSize, wheelMask = 512, 512 - 1

// wheelEvent is one slab node of a bucket's chain.
type wheelEvent struct {
	fn   func()
	next int32
}

// before is the strict total order on events: cycle first, then
// scheduling order. Because (at, seq) pairs are unique, any correct
// queue pops events in exactly one order — the engine's firing order is
// independent of the queue's internal layout.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// TickerHandle is one ticker's membership of its phase's active list. An
// awake ticker is called once per cycle, in registration order; a sleeping
// one is skipped entirely. Only the ticker's own tick puts it to sleep, by
// what it returns (AddTicker), so a ticker sleeps only where its tick has
// just proven the skipped ticks no-ops. Anyone may Wake it: a spurious wake
// costs one tick that does nothing. Wake is idempotent and O(1).
type TickerHandle struct {
	e      *Engine
	p      Phase
	idx    int
	fn     func(Cycle) Cycle
	wakeFn func() // h.wakeDue, bound at registration
	until  Cycle  // deadline of the sleep in force; Never once woken
}

// Wake adds the ticker to its phase's active list (no-op when awake).
func (h *TickerHandle) Wake() {
	if h.e.phases[h.p].active.Add(h.idx) {
		h.e.awake++
		h.until = Never
	}
}

// sleep takes the ticker, which has just ticked and so is awake, off the
// active list and schedules its wake-up at cycle c (Never: none, only a
// Wake ends it). The wake event reuses one method value per handle, so
// pacing allocates nothing.
func (h *TickerHandle) sleep(c Cycle) {
	h.e.phases[h.p].active.Remove(h.idx)
	h.e.awake--
	if h.until = c; c != Never {
		h.e.At(c, h.wakeFn)
	}
}

// wakeDue is sleep's event. It wakes the ticker only when that sleep is
// still the one in force: a ticker woken early — and perhaps asleep again
// behind a later deadline — drops the stale wake-up.
func (h *TickerHandle) wakeDue() {
	if h.until <= h.e.now {
		h.Wake()
	}
}

// Awake reports whether the ticker is on the active list.
func (h *TickerHandle) Awake() bool { return h.e.phases[h.p].active.Has(h.idx) }

// tickList is one phase's registered tickers plus the active list. The
// list is indexed by registration order, so walking it low-to-high
// preserves the deterministic tick order of a dense every-cycle fan-out.
type tickList struct {
	handles []*TickerHandle
	active  ActiveSet
}

// tick runs every awake ticker in registration order and sleeps those
// whose next work lies past the next cycle. ActiveSet.Next re-reads the
// bitmap as iteration advances, so a ticker woken mid-phase at a LATER
// index still runs this cycle (exactly as it would have under the dense
// fan-out), while wakes at already-passed indices wait for the next cycle
// (as they would have: each callback runs at most once per phase).
func (l *tickList) tick(now Cycle) (ran uint64) {
	for i := l.active.Next(0); i >= 0; i = l.active.Next(i + 1) {
		h := l.handles[i]
		if next := h.fn(now); next > now+1 {
			h.sleep(next)
		}
		ran++
	}
	return ran
}

// Engine drives the simulation. It is not safe for concurrent use; the
// whole simulator is single-goroutine by design so that runs are exactly
// reproducible from a seed.
type Engine struct {
	now Cycle
	// The event queue is a calendar wheel in front of a heap (DESIGN.md §5).
	// An event due less than wheelSize cycles past cursor joins the chain of
	// bucket at&wheelMask — O(1), in seq order by construction — and one
	// farther off waits in the heap, from where fire runs it first. cursor
	// is the oldest cycle whose bucket may hold events: now, or now-1 once a
	// Step's phases have run (their At(now) fires first in the next Step).
	// Chains are slab indices+1 (0 ends one), recycled through free, so the
	// steady state allocates nothing; occ has a bit per non-empty bucket.
	wheel  [wheelSize]struct{ head, tail int32 }
	occ    [wheelSize / 64]uint64
	slab   []wheelEvent
	free   int32
	queued int // events in the wheel
	cursor Cycle
	events []event // overflow: binary min-heap ordered by (at, seq)
	seq    uint64
	phases [numPhases]tickList
	awake  int // total awake tickers across all phases
	// Events fired from the heap and ticks executed, for Work and Counts.
	heapFired, ticks uint64
	seed             int64
	rngSeq           int64
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Seed returns the master seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// RNG returns a new deterministic random stream derived from the master
// seed. Each component should take its own stream at build time so that
// adding a component does not perturb the draws seen by others. The
// sequence number is taken here; the generator behind it is built on the
// first draw (most streams, one per switch output port, are never drawn).
func (e *Engine) RNG() *rand.Rand {
	e.rngSeq++
	return rand.New(&lazySource{seed: e.seed*1_000_003 + e.rngSeq})
}

// lazySource is rand.NewSource(seed) built at the first draw: seeding
// math/rand's 607-word state costs ~5 kB and ~10 us a stream.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.source().Int63() }
func (s *lazySource) Uint64() uint64  { return s.source().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// At schedules fn to run at cycle c (before the phases of that cycle).
// Scheduling in the past panics: it would silently corrupt causality.
func (e *Engine) At(c Cycle, fn func()) {
	if c < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d in the past (now %d)", c, e.now))
	}
	e.seq++
	if c-e.cursor >= wheelSize {
		e.pushEvent(c, fn)
		return
	}
	if e.free == 0 {
		if e.slab == nil {
			e.slab = make([]wheelEvent, 0, 64) // skip append's first six doublings
		}
		e.slab = append(e.slab, wheelEvent{})
		e.free = int32(len(e.slab))
	}
	i := e.free
	ev := &e.slab[i-1]
	e.free, ev.fn, ev.next = ev.next, fn, 0
	b := &e.wheel[c&wheelMask]
	if b.head == 0 {
		b.head = i
		e.occ[c&wheelMask>>6] |= 1 << (c & 63)
	} else {
		e.slab[b.tail-1].next = i
	}
	b.tail = i
	e.queued++
}

// fire runs the events of cycle c in (at, seq) order: the heap entries
// that have come due, then the bucket's chain, cascades appended to it
// meanwhile included. The heap's are the older ones: an event overflows
// only while its cycle is beyond the horizon, which the cursor only ever
// brings nearer, so whatever reached the bucket was scheduled later.
func (e *Engine) fire(c Cycle) {
	for len(e.events) > 0 && e.events[0].at <= c {
		e.heapFired++
		e.popEvent()()
	}
	b := &e.wheel[c&wheelMask]
	for i := b.head; i != 0; i = b.head {
		ev := &e.slab[i-1]
		fn := ev.fn
		b.head, ev.fn, ev.next, e.free = ev.next, nil, e.free, i
		e.queued--
		fn()
	}
	e.occ[c&wheelMask>>6] &^= 1 << (c & 63)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

// pushEvent sifts event (at, e.seq, fn) up a hand-rolled monomorphic
// heap. Unlike container/heap this never boxes it into an interface, so
// the only allocation on the scheduling hot path is the caller's closure.
func (e *Engine) pushEvent(at Cycle, fn func()) {
	h := append(e.events, event{})
	i := len(h) - 1
	h[i].at, h[i].seq, h[i].fn = at, e.seq, fn
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

// popEvent removes and returns the earliest event's callback.
func (e *Engine) popEvent() func() {
	h := e.events
	fn := h[0].fn
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the closure reference for the GC
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.events = h
	return fn
}

// AddTicker registers fn for per-cycle ticks in phase p and returns the
// handle that wakes it. Tickers start awake. A tick returns the first
// cycle it has work in: now+1 or earlier keeps the ticker awake, a later
// cycle sleeps it until then (an earlier Wake ends the sleep, and the
// deadline's wake-up is dropped), Never sleeps it until a Wake.
func (e *Engine) AddTicker(p Phase, fn func(Cycle) Cycle) *TickerHandle {
	if p < 0 || p >= numPhases {
		panic(fmt.Sprintf("sim: invalid phase %d", p))
	}
	l := &e.phases[p]
	h := &TickerHandle{e: e, p: p, idx: len(l.handles), fn: fn}
	h.wakeFn = h.wakeDue
	l.handles = append(l.handles, h)
	l.active.Grow(len(l.handles))
	h.Wake()
	return h
}

// ActiveTickers returns the number of awake tickers across all phases
// (diagnostics and tests; zero means Run may fast-forward).
func (e *Engine) ActiveTickers() int { return e.awake }

// Step advances the simulation by exactly one cycle: fire all events
// due at the current cycle (including cascades scheduled for the same
// cycle from within an event), then tick every awake component phase by
// phase.
func (e *Engine) Step() {
	for ; e.cursor < e.now; e.cursor++ {
		e.fire(e.cursor)
	}
	e.fire(e.now)
	if e.awake > 0 {
		for p := range e.phases {
			e.ticks += e.phases[p].tick(e.now)
		}
	}
	e.now++
}

// Run advances the simulation until (and excluding) cycle `until`.
// While every ticker sleeps, whole cycles are provably no-ops, so the
// clock fast-forwards straight to the next scheduled event (or to
// `until`) instead of stepping through them.
func (e *Engine) Run(until Cycle) {
	for e.now < until {
		if e.awake == 0 {
			if next, _ := e.NextEvent(); min(next, until) > e.now {
				e.now = min(next, until)
				e.cursor = e.now
				continue
			}
		}
		e.Step()
	}
}

// RunFor advances the simulation by d cycles.
func (e *Engine) RunFor(d Cycle) { e.Run(e.now + d) }

// Pending reports how many scheduled events have not fired yet.
func (e *Engine) Pending() int { return e.queued + len(e.events) }

// NextEvent returns the cycle of the earliest scheduled event, or Never
// and false when none is pending: the first occupied bucket from cursor
// round the wheel (a walk of the occupancy bitmap, not of the buckets),
// or the heap's top.
func (e *Engine) NextEvent() (Cycle, bool) {
	at := Never
	if len(e.events) > 0 {
		at = e.events[0].at
	}
	// From cursor to the end of its word, then word by word: back in the
	// first word, the bits left are the buckets behind cursor, a wheel on.
	for c := e.cursor; e.queued > 0; c += 64 - c&63 {
		if set := e.occ[c&wheelMask>>6] >> (c & 63); set != 0 {
			at = min(at, c+Cycle(bits.TrailingZeros64(set)))
			break
		}
	}
	return at, at != Never
}

// Work returns the engine's lifetime work count: events fired (every one
// scheduled and no longer pending) plus ticks executed — a deterministic
// measure of how busy the engine has been, never of wall-clock time.
func (e *Engine) Work() uint64 { return e.seq - uint64(e.Pending()) + e.ticks }

// Counts splits Work: events fired from the wheel, events fired from the
// overflow heap, ticks dispatched.
func (e *Engine) Counts() (wheel, heap, ticks uint64) {
	return e.seq - uint64(e.Pending()) - e.heapFired, e.heapFired, e.ticks
}
