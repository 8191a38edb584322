package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// logPipe returns a pipe on dst that appends every delivered value,
// tagged with the delivery cycle, to the returned log.
func logPipe(dst *Engine) (*Pipe[int], *[]string) {
	log := new([]string)
	return NewPipe(dst, func(v int) { *log = append(*log, fmt.Sprintf("%d@%d", v, dst.Now())) }), log
}

// Posting into a mailbox and draining it must preserve post order for
// same-cycle records: the destination engine assigns seq numbers at
// Drain time, so the firing order of a cycle's events is exactly the
// drain (= post) order.
func TestMailboxDrainPreservesPostOrder(t *testing.T) {
	dst := NewEngine(1)
	pipe, log := logPipe(dst)
	m := NewMailbox(pipe, 4)
	var want []string
	for i := 0; i < 10; i++ {
		m.Post(3, i)
		want = append(want, fmt.Sprintf("%d@3", i))
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
	m.Drain()
	if m.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", m.Len())
	}
	dst.Run(5)
	if !reflect.DeepEqual(*log, want) {
		t.Fatalf("fired %v, want %v (post order violated)", *log, want)
	}
}

// Draining two mailboxes into the same engine in a fixed order must
// interleave their same-cycle records in exactly that order, regardless
// of the order the posts happened in.
func TestMailboxFixedDrainOrderDecidesSameCycleOrder(t *testing.T) {
	dst := NewEngine(1)
	var fired []string
	a := NewMailbox(NewPipe(dst, func(v int) { fired = append(fired, fmt.Sprint("a", v)) }), 0)
	b := NewMailbox(NewPipe(dst, func(v int) { fired = append(fired, fmt.Sprint("b", v)) }), 0)
	// Post into b first: drain order, not post order across mailboxes,
	// must decide the outcome.
	b.Post(2, 0)
	a.Post(2, 0)
	b.Post(2, 1)
	a.Post(2, 1)
	a.Drain()
	b.Drain()
	dst.Run(4)
	want := []string{"a0", "a1", "b0", "b1"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v (drain order must win)", fired, want)
	}
}

// A drained mailbox keeps its backing array; reusing it across windows
// must neither lose nor redeliver records.
func TestMailboxReuseAcrossWindows(t *testing.T) {
	dst := NewEngine(1)
	pipe, log := logPipe(dst)
	m := NewMailbox(pipe, 1)
	m.Post(1, 7)
	m.Drain()
	m.Post(2, 8)
	m.Drain()
	dst.Run(4)
	if want := []string{"7@1", "8@2"}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("delivered %v, want %v (no loss, no redelivery)", *log, want)
	}
}

// closureBox is the mailbox this package had before the typed one: one
// closure per message, scheduled straight on the destination engine at
// drain time. It stays here as the reference the typed mailbox's firing
// order is checked against.
type closureBox struct {
	dst     *Engine
	entries []closureEntry
}

type closureEntry struct {
	at Cycle
	fn func()
}

func (m *closureBox) Post(at Cycle, fn func()) {
	m.entries = append(m.entries, closureEntry{at, fn})
}

func (m *closureBox) Drain() {
	for _, e := range m.entries {
		m.dst.At(e.at, e.fn)
	}
	m.entries = m.entries[:0]
}

// The typed mailbox draining into a pipe must fire a random multi-box,
// multi-window schedule in exactly the order the closure mailbox did,
// interleaved identically with events scheduled locally on the
// destination engine.
func TestTypedMailboxMatchesClosureMailboxOrder(t *testing.T) {
	const boxes, windows, window = 3, 40, Cycle(4)
	type post struct {
		box int
		at  Cycle
		v   int
	}
	rng := rand.New(rand.NewSource(5))
	schedule := make([][]post, windows) // posts made during each window
	last := make([]Cycle, boxes)
	for w := range schedule {
		start := Cycle(w) * window
		for k := rng.Intn(8); k > 0; k-- {
			b := rng.Intn(boxes)
			// Due at least one window after it was posted, never before
			// the box's previous post (the pipe's precondition).
			at := max(start+window+Cycle(rng.Intn(6)), last[b])
			last[b] = at
			schedule[w] = append(schedule[w], post{b, at, len(schedule[w]) + 100*w})
		}
	}
	run := func(typed bool) []string {
		dst := NewEngine(1)
		var log []string
		note := func(tag string, v int) { log = append(log, fmt.Sprintf("%s%d@%d", tag, v, dst.Now())) }
		var tb []*Mailbox[int]
		var cb []*closureBox
		for b := 0; b < boxes; b++ {
			tag := fmt.Sprint("box", b, ":")
			tb = append(tb, NewMailbox(NewPipe(dst, func(v int) { note(tag, v) }), 0))
			cb = append(cb, &closureBox{dst: dst})
		}
		for w, posts := range schedule {
			for _, p := range posts {
				if typed {
					tb[p.box].Post(p.at, p.v)
				} else {
					p := p
					tag := fmt.Sprint("box", p.box, ":")
					cb[p.box].Post(p.at, func() { note(tag, p.v) })
				}
			}
			end := Cycle(w+1) * window
			dst.Run(end)
			for b := 0; b < boxes; b++ {
				if typed {
					tb[b].Drain()
				} else {
					cb[b].Drain()
				}
			}
			// A local event of the destination shard, scheduled after the
			// drain for a cycle cross-shard records also land on.
			dst.At(end+window, func() { note("local", w) })
		}
		dst.Run(Cycle(windows+4) * window)
		return log
	}
	typed, closure := run(true), run(false)
	if len(closure) < 100 {
		t.Fatalf("schedule too small to mean anything: %d events", len(closure))
	}
	if !reflect.DeepEqual(typed, closure) {
		t.Fatalf("typed mailbox fired\n%v\nclosure mailbox fired\n%v", typed, closure)
	}
}

// busy registers a ticker that never sleeps, so the engine is never
// quiescent and every window is exactly one window width.
func busy(e *Engine) *int {
	ticks := new(int)
	e.AddTicker(PhaseDevice, func(Cycle) { *ticks++ })
	return ticks
}

// within fails the test when f has not returned after d: the
// coordination tests must not hang the suite when they break.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v: coordinator or workers are stuck", d)
	}
}

// Parallel must advance every busy engine in windows of exactly the
// given width, with the barrier seeing each window boundary once, in
// order, with every engine parked at that boundary.
func TestParallelWindowBoundaries(t *testing.T) {
	engines := NewEngineGroup(1, 3)
	for _, e := range engines {
		busy(e)
	}
	var boundaries []Cycle
	p := NewParallel(engines, 3, 4, func(now Cycle) {
		boundaries = append(boundaries, now)
		for i, e := range engines {
			if e.Now() != now {
				t.Errorf("engine %d at %d during barrier(%d)", i, e.Now(), now)
			}
		}
	})
	p.Run(10)
	if want := []Cycle{4, 8, 10}; !reflect.DeepEqual(boundaries, want) { // last window truncated to until
		t.Fatalf("boundaries = %v, want %v", boundaries, want)
	}
	if p.Now() != 10 {
		t.Fatalf("Now = %d, want 10", p.Now())
	}
	if s := p.Stats(); s.Windows != 3 || s.Skipped != 0 {
		t.Fatalf("stats = %+v, want 3 windows and nothing skipped", s)
	}
	// Events scheduled exactly at the stop cycle must not have fired
	// (Engine.Run's contract: until is exclusive), so a resumed run
	// picks them up.
	fired := false
	engines[0].At(10, func() { fired = true })
	if fired {
		t.Fatal("event at the stop cycle fired early")
	}
	p.Run(11)
	if !fired {
		t.Fatal("event at the stop cycle lost after resume")
	}
}

// A record posted during window [T, T+W) for cycle T+W (the minimum
// conservative lookahead) must fire on the destination in the very next
// window.
func TestParallelCrossShardDeliveryAtLookahead(t *testing.T) {
	engines := NewEngineGroup(7, 2)
	const window = Cycle(3)
	var got []Cycle // written by shard 1 only
	box := NewMailbox(NewPipe(engines[1], func(int) { got = append(got, engines[1].Now()) }), 1)
	// Shard 0 posts one record per cycle, due exactly one window later.
	engines[0].AddTicker(PhaseDevice, func(now Cycle) { box.Post(now+window, 0) })
	p := NewParallel(engines, 2, window, func(Cycle) { box.Drain() })
	p.Run(9)
	// Cycles 0..8 each post one record due at now+3; those due before 9
	// (posted in cycles 0..5) must have fired, in cycle order.
	if len(got) != 6 {
		t.Fatalf("fired %d cross-shard events, want 6: %v", len(got), got)
	}
	for i, c := range got {
		if c != Cycle(i)+window {
			t.Fatalf("event %d fired at %d, want %d", i, c, Cycle(i)+window)
		}
	}
}

// The quiescent skip: with every shard asleep and the earliest event at
// H, the window ends at H+W. An event due exactly at a barrier gets an
// ordinary window; a run that stops inside the skipped span stops
// there, and resuming picks the event up.
func TestParallelQuiescentSkip(t *testing.T) {
	const window = Cycle(4)
	newRun := func() (*Parallel, []*Engine, *[]Cycle) {
		engines := NewEngineGroup(1, 3)
		boundaries := new([]Cycle)
		p := NewParallel(engines, 2, window, func(now Cycle) { *boundaries = append(*boundaries, now) })
		return p, engines, boundaries
	}

	t.Run("event at H, then one at the barrier", func(t *testing.T) {
		p, engines, boundaries := newRun()
		var fired []Cycle
		for _, at := range []Cycle{100, 104} {
			engines[1].At(at, func() { fired = append(fired, engines[1].Now()) })
		}
		p.Run(1000)
		// Nothing before 100, so the first window is [0, 104). At that
		// barrier the next event is due at 104 — now — so [104, 108) is a
		// plain window, and after it nothing is left: straight to until.
		if want := []Cycle{104, 108, 1000}; !reflect.DeepEqual(*boundaries, want) {
			t.Fatalf("boundaries = %v, want %v", *boundaries, want)
		}
		if want := []Cycle{100, 104}; !reflect.DeepEqual(fired, want) {
			t.Fatalf("events fired at %v, want %v", fired, want)
		}
		// [0,104) stands for 26 plain windows, [108,1000) for 223.
		if s := p.Stats(); s.Windows != 3 || s.Skipped != 25+222 {
			t.Fatalf("stats = %+v, want 3 windows, 247 skipped", s)
		}
	})

	t.Run("cut message sent at H lands at H+W", func(t *testing.T) {
		engines := NewEngineGroup(1, 2)
		var landed []Cycle
		box := NewMailbox(NewPipe(engines[1], func(int) { landed = append(landed, engines[1].Now()) }), 0)
		// The tightest case the skip must leave room for: shard 0 sends
		// at H over a link whose delay is exactly the window.
		engines[0].At(100, func() { box.Post(engines[0].Now()+window, 1) })
		var boundaries []Cycle
		p := NewParallel(engines, 2, window, func(now Cycle) {
			boundaries = append(boundaries, now)
			box.Drain()
		})
		p.Run(1000)
		if want := []Cycle{104}; !reflect.DeepEqual(landed, want) {
			t.Fatalf("message landed at %v, want %v", landed, want)
		}
		// Drained at the 104 barrier into an event due at 104: a plain
		// window, then nothing is left.
		if want := []Cycle{104, 108, 1000}; !reflect.DeepEqual(boundaries, want) {
			t.Fatalf("boundaries = %v, want %v", boundaries, want)
		}
	})

	t.Run("until inside the skipped span", func(t *testing.T) {
		p, engines, boundaries := newRun()
		fired := Cycle(-1)
		engines[2].At(100, func() { fired = engines[2].Now() })
		p.Run(50)
		if p.Now() != 50 || fired != -1 {
			t.Fatalf("stopped at %d with the event fired at %d, want 50 and not fired", p.Now(), fired)
		}
		for i, e := range engines {
			if e.Now() != 50 {
				t.Fatalf("engine %d at %d, want 50", i, e.Now())
			}
		}
		p.Run(1000)
		if fired != 100 {
			t.Fatalf("event fired at %d after resume, want 100", fired)
		}
		if want := []Cycle{50, 104, 1000}; !reflect.DeepEqual(*boundaries, want) {
			t.Fatalf("boundaries = %v, want %v", *boundaries, want)
		}
	})

	t.Run("one awake ticker anywhere forbids the skip", func(t *testing.T) {
		p, engines, boundaries := newRun()
		busy(engines[2])
		engines[0].At(100, func() {})
		p.Run(12)
		if want := []Cycle{4, 8, 12}; !reflect.DeepEqual(*boundaries, want) {
			t.Fatalf("boundaries = %v, want %v", *boundaries, want)
		}
	})
}

// Shards are handed out heaviest first by the work they did in the
// window before.
func TestParallelRanksShardsByWork(t *testing.T) {
	engines := NewEngineGroup(1, 4)
	for i, tickers := range []int{1, 5, 0, 3} {
		for k := 0; k < tickers; k++ {
			busy(engines[i])
		}
	}
	p := NewParallel(engines, 1, 8, nil)
	p.Run(8)
	if want := []int{1, 3, 0, 2}; !reflect.DeepEqual(p.order, want) {
		t.Fatalf("order after one window = %v, want %v", p.order, want)
	}
	// Shard 2 starts working harder than all the others.
	for k := 0; k < 9; k++ {
		busy(engines[2])
	}
	p.Run(16)
	if want := []int{2, 1, 3, 0}; !reflect.DeepEqual(p.order, want) {
		t.Fatalf("order after shard 2 got busy = %v, want %v", p.order, want)
	}
}

// A claim made with a ticket value read in an earlier window must fail
// even when the new window's ticket stands at the same slot, and every
// slot of every window is handed out exactly once.
func TestTicketStragglerCrossingGenerations(t *testing.T) {
	const n = 4
	var ticket atomic.Uint64
	drain := func() []int {
		var slots []int
		for {
			slot, _, ok := claimSlot(&ticket, n)
			if !ok {
				return slots
			}
			slots = append(slots, slot)
		}
	}
	ticket.Store(1 << slotBits)
	stale := ticket.Load() // a straggler reads (window 1, slot 0) and stalls
	if got, want := drain(), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window 1 handed out %v, want %v", got, want)
	}
	ticket.Store(2 << slotBits) // window 2 opens: slot 0 is up again
	if ticket.CompareAndSwap(stale, stale+1) {
		t.Fatal("a ticket value from window 1 claimed a slot of window 2")
	}
	if got, want := drain(), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window 2 handed out %v after the stale claim, want %v", got, want)
	}
	ticket.Store(stopTicket)
	if _, seen, ok := claimSlot(&ticket, n); ok || seen != stopTicket {
		t.Fatalf("claim after stop = (ok %v, seen %#x)", ok, seen)
	}
}

// Many claimers racing over many windows: each slot of each window is
// claimed exactly once, with claimers arriving late from the window
// before all the time.
func TestTicketConcurrentClaims(t *testing.T) {
	const n, claimers, windows = 5, 4, 20_000
	var (
		ticket atomic.Uint64
		done   atomic.Int32
		claims [n]atomic.Int32
		wg     sync.WaitGroup
	)
	ticket.Store(n)
	for c := 0; c < claimers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slot, seen, ok := claimSlot(&ticket, n)
				switch {
				case ok:
					claims[slot].Add(1)
					done.Add(1)
				case seen == stopTicket:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	for gen := uint64(1); gen <= windows; gen++ {
		for i := range claims {
			claims[i].Store(0)
		}
		done.Store(0)
		ticket.Store(gen << slotBits)
		for done.Load() != n {
			runtime.Gosched()
		}
		for i := range claims {
			if c := claims[i].Load(); c != 1 {
				t.Fatalf("window %d: slot %d claimed %d times", gen, i, c)
			}
		}
	}
	ticket.Store(stopTicket)
	wg.Wait()
}

// More shards than workers, more workers than processors: the spin
// must give way, every shard must run every window, and Run must
// return.
func TestParallelLiveOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, cycles = 7, 20_000
	engines := NewEngineGroup(1, shards)
	var ticks []*int
	for _, e := range engines {
		ticks = append(ticks, busy(e))
	}
	p := NewParallel(engines, 3, 2, nil)
	within(t, time.Minute, func() { p.Run(cycles) })
	for i, n := range ticks {
		if *n != cycles {
			t.Fatalf("shard %d ticked %d cycles, want %d", i, *n, cycles)
		}
	}
	if s := p.Stats(); s.Windows != cycles/2 {
		t.Fatalf("ran %d windows, want %d", s.Windows, cycles/2)
	}
}

// Windows long enough that idle workers go all the way to parking: the
// coordinator must wake them again, and teardown must not hang on a
// parked worker.
func TestParallelWakesParkedWorkers(t *testing.T) {
	engines := NewEngineGroup(1, 4)
	for _, e := range engines {
		busy(e)
	}
	// The barrier outlasts the spin and yield phases by a wide margin.
	p := NewParallel(engines, 4, 50, func(Cycle) { time.Sleep(5 * time.Millisecond) })
	within(t, time.Minute, func() { p.Run(500) })
	for i, e := range engines {
		if e.Now() != 500 {
			t.Fatalf("engine %d at %d, want 500", i, e.Now())
		}
	}
}

// Stress for the race detector: a hundred thousand windows with
// nothing in them but the hand-off itself.
func TestParallelManyEmptyWindows(t *testing.T) {
	const windows = 100_000
	engines := NewEngineGroup(1, 4)
	var ticks []*int
	for _, e := range engines {
		ticks = append(ticks, busy(e))
	}
	barriers := 0
	p := NewParallel(engines, 2, 1, func(Cycle) { barriers++ })
	within(t, 2*time.Minute, func() { p.Run(windows) })
	if barriers != windows {
		t.Fatalf("%d barriers, want %d", barriers, windows)
	}
	for i, n := range ticks {
		if *n != windows {
			t.Fatalf("shard %d ticked %d cycles, want %d", i, *n, windows)
		}
	}
}

// A panic inside a shard — on whichever goroutine runs it — comes out
// of Run on the caller's goroutine with its original value, after the
// window was joined and the workers torn down. With two shards
// panicking in the same window the lower index is reported.
func TestParallelReraisesShardPanicOnCaller(t *testing.T) {
	type boom struct{ shard int }
	engines := NewEngineGroup(1, 6)
	for i, e := range engines {
		i := i
		busy(e)
		if i == 2 || i == 4 {
			e.At(10, func() { panic(boom{i}) })
		}
	}
	var lastBarrier Cycle
	p := NewParallel(engines, 3, 4, func(now Cycle) { lastBarrier = now })
	before := runtime.NumGoroutine()
	var got any
	within(t, time.Minute, func() {
		defer func() { got = recover() }()
		p.Run(100)
	})
	if got != (boom{2}) {
		t.Fatalf("Run panicked with %#v, want %#v", got, boom{2})
	}
	if lastBarrier != 8 {
		t.Fatalf("last barrier at %d, want 8: the window that panicked must not reach its barrier", lastBarrier)
	}
	// The shards that did not panic finished the window.
	for _, i := range []int{0, 1, 3, 5} {
		if engines[i].Now() != 12 {
			t.Fatalf("engine %d at %d, want 12", i, engines[i].Now())
		}
	}
	// Run waits for its workers, so they are gone by now; give the
	// runtime a moment to retire them before counting.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the panic, %d before: workers leaked", n, before)
	}
}

// Engines from NewEngineGroup share one RNG derivation counter: the
// stream a component receives depends only on the global order of RNG()
// calls, not on which shard's engine served it. This is what keeps a
// partitioned build's draws identical to the serial build's.
func TestEngineGroupSharedRNGCounter(t *testing.T) {
	serial := NewEngine(42)
	a := serial.RNG().Int63()
	b := serial.RNG().Int63()

	group := NewEngineGroup(42, 2)
	ga := group[0].RNG().Int63()
	gb := group[1].RNG().Int63() // second draw, even though a different engine

	if ga != a || gb != b {
		t.Fatalf("group draws (%d, %d) differ from serial draws (%d, %d)", ga, gb, a, b)
	}
}
