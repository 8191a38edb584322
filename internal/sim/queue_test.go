package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// heapEngine is the queue the calendar wheel replaced, kept as the
// reference the wheel is checked against: every event in one (at, seq)
// order — a sorted slice here, the order is all that matters — popped
// while due at the top of Step, dense per-phase ticker lists, and the
// same deadline-on-the-handle rule for the cycle a tick returns. It shares
// no code with Engine.
type heapEngine struct {
	now    Cycle
	seq    uint64
	events []event
	phases [numPhases][]*heapHandle
}

type heapHandle struct {
	e     *heapEngine
	fn    func(Cycle) Cycle
	awake bool
	until Cycle
}

func (h *heapHandle) Wake() {
	if !h.awake {
		h.awake, h.until = true, -1
	}
}
func (h *heapHandle) Awake() bool { return h.awake }

// sleep is what a tick returning c past the next cycle does to its ticker.
func (h *heapHandle) sleep(c Cycle) {
	h.awake, h.until = false, c
	if c == Never {
		return
	}
	h.e.At(c, func() {
		if h.until >= 0 && h.until <= h.e.now {
			h.Wake()
		}
	})
}

func (e *heapEngine) Now() Cycle { return e.now }

func (e *heapEngine) At(c Cycle, fn func()) {
	if c < e.now {
		panic("past")
	}
	e.seq++
	ev := event{at: c, seq: e.seq, fn: fn}
	i := sort.Search(len(e.events), func(i int) bool { return ev.before(e.events[i]) })
	e.events = append(e.events, event{})
	copy(e.events[i+1:], e.events[i:])
	e.events[i] = ev
}

func (e *heapEngine) Step() {
	for len(e.events) > 0 && e.events[0].at <= e.now {
		fn := e.events[0].fn
		e.events = e.events[1:]
		fn()
	}
	for p := range e.phases {
		for _, h := range e.phases[p] {
			if h.awake {
				if next := h.fn(e.now); next > e.now+1 {
					h.sleep(next)
				}
			}
		}
	}
	e.now++
}

func (e *heapEngine) awake() bool {
	for p := range e.phases {
		for _, h := range e.phases[p] {
			if h.awake {
				return true
			}
		}
	}
	return false
}

func (e *heapEngine) Run(until Cycle) {
	for e.now < until {
		if !e.awake() && (len(e.events) == 0 || e.events[0].at > e.now) {
			e.now = until
			if len(e.events) > 0 && e.events[0].at < until {
				e.now = e.events[0].at
			}
			continue
		}
		e.Step()
	}
}

func (e *heapEngine) Pending() int { return len(e.events) }

func (e *heapEngine) NextEvent() (Cycle, bool) {
	if len(e.events) == 0 {
		return Never, false
	}
	return e.events[0].at, true
}

func (e *heapEngine) ticker(p Phase, fn func(Cycle) Cycle) waker {
	h := &heapHandle{e: e, fn: fn, awake: true, until: -1}
	e.phases[p] = append(e.phases[p], h)
	return h
}

// queue is what a script drives: Engine and heapEngine alike.
type queue interface {
	Now() Cycle
	At(Cycle, func())
	Step()
	Run(Cycle)
	Pending() int
	NextEvent() (Cycle, bool)
	ticker(Phase, func(Cycle) Cycle) waker
}

type waker interface {
	Wake()
	Awake() bool
}

type wheelEngine struct{ *Engine }

func (w wheelEngine) ticker(p Phase, fn func(Cycle) Cycle) waker {
	return w.AddTicker(p, fn)
}

// Script vocabulary: one op byte, then its argument bytes (missing bytes
// read as zero, so every byte string is a script).
const (
	opAt     = iota // delta, behaviour: schedule an event
	opStep          // one Step
	opRun           // delta: Run(now + delta)
	opHandle        // ticker, verb: Wake (or a sleep verb: no-op) from outside the phases
	opArm           // ticker, verb: what the ticker does on its next tick
	opPast          // At(now-1): must panic
	numOps
)

// deltas are the distances a script schedules and runs over: now, next
// cycle, inside the wheel, its last bucket, exactly the horizon, beyond
// it, far beyond it, and (last) back to the cycle the latest overflow
// event is due at — the way an event reaches a bucket whose cycle already
// has entries in the heap.
var deltas = []Cycle{0, 1, 2, 9, wheelSize - 1, wheelSize, wheelSize + 1, 3*wheelSize + 5, 10 * wheelSize, -1}

const nTickers = 6 // two phases x three, so mid-phase wakes have both orders

// player runs one script on one queue and keeps the transcript.
type player struct {
	q       queue
	tickers [nTickers]waker
	armed   [nTickers]byte // verb for the ticker's next tick (0: none)
	nextID  int
	mark    Cycle // due cycle of the latest overflow event
	log     []string
}

func newPlayer(q queue) *player {
	p := &player{q: q}
	for k := range p.tickers {
		k := k
		p.tickers[k] = q.ticker(Phase(k%2), func(now Cycle) Cycle {
			p.logf("tick %d", k)
			verb := p.armed[k]
			p.armed[k] = 0
			return p.act(k, verb)
		})
		p.armed[k] = 5 // tickers start awake: the first tick returns Never
	}
	return p
}

func (p *player) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf("%d: ", p.q.Now())+fmt.Sprintf(format, args...))
}

func (p *player) due(d byte) Cycle {
	if delta := deltas[int(d)%len(deltas)]; delta >= 0 {
		return p.q.Now() + delta
	}
	return max(p.mark, p.q.Now())
}

// schedule puts one logging event at cycle c; behaviour says what the
// event does when it fires (cascade, touch a ticker).
func (p *player) schedule(c Cycle, behaviour byte) {
	id := p.nextID
	p.nextID++
	if c-p.q.Now() >= wheelSize {
		p.mark = c
	}
	p.q.At(c, func() {
		p.logf("event %d", id)
		p.act(int(behaviour>>4)%nTickers, behaviour&15)
	})
}

// act is what an event or a tick does beyond logging, on ticker k. It
// returns what a tick acting so returns, the cycle its ticker next runs:
// the sleep verbs (5-8) act through that alone, so from an event or from
// outside the phases they do nothing.
func (p *player) act(k int, verb byte) Cycle {
	now := p.q.Now()
	switch verb % 10 {
	case 1:
		p.schedule(now, 0) // a cascade (from an event) or a late At(now) (from a phase)
	case 2:
		p.schedule(now+1, 1) // ... whose child cascades in turn
	case 3:
		p.schedule(now+wheelSize, 0) // overflow from inside the firing loop
	case 4:
		p.tickers[k].Wake()
	case 5:
		return Never
	case 6:
		return now + 2 // the nearest deadline that sleeps
	case 7:
		return now + wheelSize + 2
	case 8:
		return now // stays awake, as now+1 does
	case 9:
		p.schedule(max(p.mark, now), 0) // beside the overflow entries of that cycle
	}
	return now + 1
}

// play runs one op and returns the rest of the script.
func (p *player) play(s []byte) []byte {
	arg := func() byte {
		if len(s) == 0 {
			return 0
		}
		b := s[0]
		s = s[1:]
		return b
	}
	switch arg() % numOps {
	case opAt:
		p.schedule(p.due(arg()), arg())
	case opStep:
		p.q.Step()
	case opRun:
		p.q.Run(p.due(arg()))
	case opHandle:
		p.act(int(arg())%nTickers, 4+arg()%5)
	case opArm:
		p.armed[int(arg())%nTickers] = arg()
	case opPast:
		func() {
			defer func() { p.logf("past: panic %v", recover() != nil) }()
			p.q.At(p.q.Now()-1, func() {})
		}()
	}
	return s
}

func (p *player) state() string {
	at, ok := p.q.NextEvent()
	if !ok {
		at = Never
	}
	s := fmt.Sprintf("now %d pending %d next %d awake", p.q.Now(), p.q.Pending(), at)
	for _, h := range p.tickers {
		s += fmt.Sprint(" ", h.Awake())
	}
	return s
}

// replay drives the wheel engine and the heap-only reference with one
// script and requires the same firing transcript, and the same clock,
// Pending, NextEvent and awake set after every op. It returns the
// transcript.
func replay(t *testing.T, script []byte) []string {
	t.Helper()
	got, want := newPlayer(wheelEngine{NewEngine(1)}), newPlayer(&heapEngine{})
	// Bounded, so that no input makes the fuzzer wait: awake tickers log
	// every cycle of a Run.
	for ops, rest, seen := 0, script, 0; len(rest) > 0 && ops < 512 && seen < 1<<15; ops++ {
		next := got.play(rest)
		want.play(rest)
		op := rest[:len(rest)-len(next)]
		if len(got.log) != len(want.log) {
			t.Fatalf("op %d %v: wheel logged %d lines, heap %d\nwheel: %q\nheap:  %q", ops, op, len(got.log), len(want.log), tail(got.log), tail(want.log))
		}
		for ; seen < len(want.log); seen++ {
			if got.log[seen] != want.log[seen] {
				t.Fatalf("op %d %v: transcript line %d: wheel %q, heap %q", ops, op, seen, got.log[seen], want.log[seen])
			}
		}
		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("op %d %v: wheel %s, heap %s", ops, op, g, w)
		}
		rest = next
	}
	return got.log
}

func tail(log []string) []string { return log[max(0, len(log)-8):] }

// queueScripts are the named cases of the table — and the fuzz target's
// seed corpus. want is a line the transcript must contain: a script that
// fires nothing proves nothing.
var queueScripts = []struct {
	name   string
	script []byte
	want   string
}{
	{"at now, next cycle and inside the wheel", []byte{opAt, 0, 0, opAt, 1, 0, opAt, 3, 0, opAt, 0, 0, opRun, 5}, "9: event 2"},
	{"last bucket, exactly the horizon, beyond it", []byte{opAt, 5, 0, opAt, 4, 0, opAt, 6, 0, opAt, 8, 0, opRun, 8, opRun, 1}, "5120: event 3"},
	{"cascades from inside a firing event", []byte{opAt, 2, 1, opAt, 2, 2, opAt, 2, 3, opAt, 2, 0, opRun, 3, opRun, 6}, "514: event 6"},
	{"At(now) from inside each phase", []byte{
		opArm, 0, 1, opArm, 1, 1, opArm, 2, 1, opHandle, 0, 0, opHandle, 1, 0, opHandle, 2, 0,
		opAt, 1, 0, opStep, opStep, opStep}, "1: event 1"},
	{"a returned deadline, early wake, later deadline", []byte{
		opArm, 3, 6, opStep, opHandle, 3, 0, opArm, 3, 7, opStep, opRun, 3, opRun, 7, opRun, 1}, "515: tick 3"},
	{"a tick returning now stays awake", []byte{opArm, 4, 8, opStep, opStep, opStep}, "2: tick 4"},
	{"gaps of 0, 1, wheelSize-1, wheelSize and 10 wheels, all asleep", []byte{
		opAt, 8, 0, opRun, 0, opRun, 1, opRun, 4, opAt, 1, 0, opRun, 5, opRun, 8, opRun, 8}, "5120: event 0"},
	{"overflow due in a cycle whose bucket is not empty", []byte{
		opAt, 7, 0, opAt, 7, 9, opRun, 5, opAt, 9, 0, opAt, 9, 9, opRun, 8}, "1541: event 4"},
	{"overflow scheduled by a firing event, met by a later bucket entry", []byte{opAt, 1, 3, opRun, 3, opAt, 9, 0, opRun, 5, opRun, 1}, "513: event 2"},
	{"scheduling in the past panics", []byte{opRun, 3, opPast, opAt, 0, 0, opStep}, "9: past: panic true"},
	{"stale wake-ups keep Pending until they fire", []byte{opArm, 5, 7, opStep, opHandle, 5, 0, opArm, 5, 5, opStep, opRun, 8}, "1: tick 5"},
}

func TestEngineQueue(t *testing.T) {
	for _, c := range queueScripts {
		t.Run(c.name, func(t *testing.T) {
			log := replay(t, c.script)
			for _, line := range log {
				if line == c.want {
					return
				}
			}
			if c.want != "" {
				t.Fatalf("transcript lacks %q:\n%q", c.want, log)
			}
		})
	}
}

// FuzzEventOrder replays arbitrary scripts on both queues. The seed corpus
// is the table above plus testdata/fuzz/FuzzEventOrder.
func FuzzEventOrder(f *testing.F) {
	for _, c := range queueScripts {
		f.Add(c.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { replay(t, script) })
}

// A ticker woken before the deadline its tick returned, whose next tick
// returns a later one, is not woken at the old deadline: the stale wake-up
// fires (it is an event like any other) and does nothing.
func TestReturnedDeadlineDropsStaleWake(t *testing.T) {
	e := NewEngine(1)
	var ticks []Cycle
	start := Cycle(0)
	h := e.AddTicker(PhaseDevice, func(now Cycle) Cycle {
		ticks = append(ticks, now)
		switch now - start {
		case 0:
			return start + 20
		case 5:
			return start + 40
		}
		return now + 1
	})
	e.At(5, h.Wake)
	e.Run(41)
	if want := []Cycle{0, 5, 40}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("ticked at %v, want %v", ticks, want)
	}
	if e.Pending() != 0 || !h.Awake() {
		t.Fatalf("after 40: %d events pending, awake %v", e.Pending(), h.Awake())
	}
	// The same dance as a steady state allocates nothing.
	wake := h.Wake
	period := func() {
		start, ticks = e.Now(), ticks[:0]
		e.At(start+5, wake)
		e.Run(start + 41)
	}
	if allocs := testing.AllocsPerRun(10, period); allocs != 0 {
		t.Fatalf("sleep, early wake, sleep again allocates %v per period", allocs)
	}
	if want := []Cycle{start, start + 5, start + 40}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("a steady-state period ticked at %v, want %v", ticks, want)
	}
}

// A tick returning Never sleeps its ticker with nothing scheduled, so a run
// with nothing else to do fast-forwards, and only Wake ends the sleep.
func TestReturnedNeverSleepsUntilWake(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	h := e.AddTicker(PhaseDevice, func(Cycle) Cycle { ticks++; return Never })
	e.Run(10 * wheelSize)
	if wheel, heap, dispatched := e.Counts(); h.Awake() || e.Pending() != 0 || ticks != 1 || wheel+heap+dispatched != 1 {
		t.Fatalf("awake %v, %d pending, %d ticks, counts %d + %d + %d after returning Never", h.Awake(), e.Pending(), ticks, wheel, heap, dispatched)
	}
	h.Wake()
	e.Step()
	if ticks != 2 {
		t.Fatalf("%d ticks after Wake, want 2", ticks)
	}
}

// Counts tells the wheel's events from the overflow heap's, and a
// fast-forward takes the cursor along: were it left behind, the next Step
// would walk the empty buckets of the gap one by one — here 2^40 of them,
// which no test timeout outlasts.
func TestCountsSplitWorkAndFastForwardMovesTheCursor(t *testing.T) {
	e := NewEngine(1)
	e.AddTicker(PhaseInject, func(Cycle) Cycle { return Never })
	e.At(1<<40, func() {})
	e.Step()
	e.Run(1<<40 + 1)
	e.At(e.Now()+1, func() {})
	e.Run(e.Now() + 2)
	if wheel, heap, ticks := e.Counts(); wheel != 1 || heap != 1 || ticks != 1 || e.Pending() != 0 {
		t.Fatalf("wheel %d, heap %d, ticks %d, pending %d; want 1, 1, 1, 0", wheel, heap, ticks, e.Pending())
	}
}
