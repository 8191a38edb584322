package sim

import (
	"reflect"
	"testing"
)

// An event scheduled from inside Step (here: from a phase tick) for the
// current cycle must not be lost: phases run after the event pass, so
// it fires in the next cycle's event pass, before that cycle's phases.
func TestEventScheduledDuringStepForCurrentCycle(t *testing.T) {
	e := NewEngine(1)
	var fired []Cycle
	armed := false
	e.AddTicker(PhaseDevice, func(now Cycle) Cycle {
		if now == 5 && !armed {
			armed = true
			e.At(now, func() { fired = append(fired, e.Now()) })
		}
		return now + 1
	})
	e.Run(8)
	if len(fired) != 1 || fired[0] != 6 {
		t.Fatalf("event fired at %v, want once at cycle 6 (event pass after the scheduling phase)", fired)
	}
}

// At on the exact current cycle, issued between Steps, fires within the
// very next Step and before any phase of that cycle.
func TestAtOnExactCurrentCycle(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.AddTicker(PhaseInject, func(now Cycle) Cycle { order = append(order, "inject"); return now + 1 })
	e.At(e.Now(), func() { order = append(order, "event") })
	e.Step()
	if len(order) != 2 || order[0] != "event" || order[1] != "inject" {
		t.Fatalf("order = %v, want [event inject]", order)
	}
}

// 1000 events on one cycle must fire in exactly scheduling order, no
// matter how the heap rearranged them internally.
func TestSameCycleFIFOAcross1000Events(t *testing.T) {
	e := NewEngine(1)
	const n = 1000
	var got []int
	// Interleave target cycles so the heap really has to interleave
	// (at, seq) pairs rather than receiving them presorted.
	for i := 0; i < n; i++ {
		i := i
		e.At(10, func() { got = append(got, i) })
		e.At(5, func() {}) // chaff on an earlier cycle
	}
	e.Run(11)
	if len(got) != n {
		t.Fatalf("%d events fired, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired in position %d: FIFO tie-break violated", v, i)
		}
	}
}

// With every ticker asleep, Run must jump the clock straight to the
// next event instead of stepping through empty cycles, and Pending must
// reflect exactly the events that have not fired.
func TestPendingAfterIdleFastForward(t *testing.T) {
	e := NewEngine(1)
	e.AddTicker(PhaseDevice, func(Cycle) Cycle { return Never })
	var fired []Cycle
	e.At(1_000, func() { fired = append(fired, e.Now()) })
	e.At(500_000, func() { fired = append(fired, e.Now()) })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run(1_001)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after first event, want 1", e.Pending())
	}
	if len(fired) != 1 || fired[0] != 1_000 {
		t.Fatalf("fired = %v, want [1000]", fired)
	}
	// Fast-forward must clamp at `until`, not jump past it to the event.
	e.Run(10_000)
	if e.Now() != 10_000 {
		t.Fatalf("Now = %d, want clamp at 10000", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (far event untouched)", e.Pending())
	}
	e.Run(600_000)
	if e.Pending() != 0 || len(fired) != 2 || fired[1] != 500_000 {
		t.Fatalf("Pending = %d, fired = %v; want 0 and [1000 500000]", e.Pending(), fired)
	}
}

// A ticker woken mid-phase at a later registration index runs in the
// same cycle; one woken at an earlier index waits for the next cycle —
// exactly the semantics of the dense every-cycle fan-out it replaced.
func TestMidPhaseWakeOrdering(t *testing.T) {
	e := NewEngine(1)
	var runs []string
	var hEarly, hLate *TickerHandle
	hEarly = e.AddTicker(PhaseDevice, func(Cycle) Cycle {
		runs = append(runs, "early")
		return Never
	})
	e.AddTicker(PhaseDevice, func(now Cycle) Cycle {
		runs = append(runs, "mid")
		if now == 1 {
			hEarly.Wake() // already passed this cycle: next cycle
			hLate.Wake()  // still ahead this cycle: runs now
		}
		return now + 1
	})
	hLate = e.AddTicker(PhaseDevice, func(Cycle) Cycle {
		runs = append(runs, "late")
		return Never
	})
	e.Step() // early and late tick once and sleep
	runs = nil
	e.Step()
	if want := []string{"mid", "late"}; !eq(runs, want) {
		t.Fatalf("cycle 1 runs = %v, want %v", runs, want)
	}
	runs = nil
	e.Step()
	if want := []string{"early", "mid"}; !eq(runs, want) {
		t.Fatalf("cycle 2 runs = %v, want %v", runs, want)
	}
}

func TestWakeSleepIdempotent(t *testing.T) {
	e := NewEngine(1)
	h := e.AddTicker(PhaseDevice, func(Cycle) Cycle { return Never })
	if !h.Awake() || e.ActiveTickers() != 1 {
		t.Fatal("tickers must start awake")
	}
	h.Wake()
	h.Wake()
	if e.ActiveTickers() != 1 {
		t.Fatalf("double Wake counted twice: ActiveTickers = %d", e.ActiveTickers())
	}
	e.Step()
	e.Step()
	if h.Awake() || e.ActiveTickers() != 0 {
		t.Fatalf("after returning Never: Awake=%v ActiveTickers=%d", h.Awake(), e.ActiveTickers())
	}
	h.Wake()
	h.Wake()
	if !h.Awake() || e.ActiveTickers() != 1 {
		t.Fatalf("double Wake of a sleeper: Awake=%v ActiveTickers=%d", h.Awake(), e.ActiveTickers())
	}
}

// What a tick returns decides alone whether it schedules anything: now+1
// or earlier keeps the ticker awake and the queue untouched, Never sleeps
// it with nothing scheduled, and only a later cycle queues a wake-up.
func TestReturnedCycleSchedulesOnlyLaterDeadlines(t *testing.T) {
	for _, c := range []struct {
		name           string
		next           func(now Cycle) Cycle
		ticks, pending int
		awake          bool
	}{
		{"now-1", func(now Cycle) Cycle { return now - 1 }, 100, 0, true},
		{"now", func(now Cycle) Cycle { return now }, 100, 0, true},
		{"now+1", func(now Cycle) Cycle { return now + 1 }, 100, 0, true},
		{"now+2", func(now Cycle) Cycle { return now + 2 }, 50, 1, false},
		{"Never", func(Cycle) Cycle { return Never }, 1, 0, false},
	} {
		e := NewEngine(1)
		ticks := 0
		h := e.AddTicker(PhaseDevice, func(now Cycle) Cycle {
			ticks++
			if e.Pending() != 0 {
				t.Fatalf("%s: %d events pending at tick %d", c.name, e.Pending(), now)
			}
			return c.next(now)
		})
		e.Run(100)
		if ticks != c.ticks || e.Pending() != c.pending || h.Awake() != c.awake {
			t.Errorf("%s: %d ticks, %d pending, awake %v; want %d, %d, %v", c.name, ticks, e.Pending(), h.Awake(), c.ticks, c.pending, c.awake)
		}
	}
}

// More than 64 tickers exercises the multi-word active-list bitmap.
func TestActiveListAcrossBitmapWords(t *testing.T) {
	e := NewEngine(1)
	const n = 130
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.AddTicker(PhaseInject, func(now Cycle) Cycle {
			order = append(order, i)
			if i%3 == 0 {
				return Never
			}
			return now + 1
		})
	}
	e.Step() // every third ticker ticks once and sleeps
	order = nil
	e.Step()
	want := 0
	for _, v := range order {
		if v%3 == 0 {
			t.Fatalf("sleeping ticker %d ran", v)
		}
		if v < want {
			t.Fatalf("ticker order %v not ascending", order)
		}
		want = v
	}
	if len(order) != n-(n+2)/3 {
		t.Fatalf("%d tickers ran, want %d", len(order), n-(n+2)/3)
	}
}

// The tests named TestParallel* keep the names of the partitioned
// coordinator's tests: each property they held for a group of engines
// advanced in lockstep windows, Run now holds alone.

// busy registers a ticker that never sleeps, so the engine is never
// quiescent and Run steps every cycle.
func busy(e *Engine) *int {
	ticks := new(int)
	e.AddTicker(PhaseDevice, func(now Cycle) Cycle { *ticks++; return now + 1 })
	return ticks
}

// witness registers a ticker whose every tick returns Never: it ticks in
// the cycle it is registered in, then once for each event passed its wake
// handle. The cycles it logs are the cycles Run stepped with work to do.
func witness(e *Engine) (*TickerHandle, *[]Cycle) {
	log := new([]Cycle)
	h := e.AddTicker(PhaseDevice, func(now Cycle) Cycle {
		*log = append(*log, now)
		return Never
	})
	return h, log
}

// Running a busy engine in windows of width 4 — Run(4), Run(8), Run(10) —
// stops exactly at each bound having ticked every cycle once, the last
// window truncated to its until. An event due at the stop cycle has not
// fired (until is exclusive), and a resumed run picks it up.
func TestParallelWindowBoundaries(t *testing.T) {
	e := NewEngine(1)
	ticks := busy(e)
	for _, until := range []Cycle{4, 8, 10} {
		e.Run(until)
		if e.Now() != until || Cycle(*ticks) != until {
			t.Fatalf("Run(%d) stopped at %d after %d ticks", until, e.Now(), *ticks)
		}
	}
	fired := false
	e.At(10, func() { fired = true })
	if fired {
		t.Fatal("event at the stop cycle fired early")
	}
	e.Run(11)
	if !fired {
		t.Fatal("event at the stop cycle lost after resume")
	}
}

// A record posted each cycle T through a Pipe for cycle T+W (a link of
// delay W) fires at exactly T+W, in posting order.
func TestParallelCrossShardDeliveryAtLookahead(t *testing.T) {
	e := NewEngine(7)
	const window = Cycle(3)
	var got []Cycle
	pipe := NewPipe(e, func(int) { got = append(got, e.Now()) })
	e.AddTicker(PhaseDevice, func(now Cycle) Cycle { pipe.At(now+window, 0); return now + 1 })
	e.Run(9)
	// Cycles 0..8 each post one record due at now+3; those due before 9
	// (posted in cycles 0..5) must have fired, in cycle order.
	if len(got) != 6 {
		t.Fatalf("fired %d piped events, want 6: %v", len(got), got)
	}
	for i, c := range got {
		if c != Cycle(i)+window {
			t.Fatalf("event %d fired at %d, want %d", i, c, Cycle(i)+window)
		}
	}
}

// The quiescent skip: with every ticker asleep, Run jumps from event to
// event — only their cycles do any work — and it stops at until even
// inside a skipped span.
func TestParallelQuiescentSkip(t *testing.T) {
	const window = Cycle(4)

	t.Run("event at H, then one at the barrier", func(t *testing.T) {
		e := NewEngine(1)
		h, stepped := witness(e)
		var fired []Cycle
		for _, at := range []Cycle{100, 100 + window} {
			e.At(at, func() { fired = append(fired, e.Now()); h.Wake() })
		}
		e.Run(1000)
		if want := []Cycle{100, 104}; !reflect.DeepEqual(fired, want) || !reflect.DeepEqual(*stepped, append([]Cycle{0}, want...)) {
			t.Fatalf("events fired at %v, the witness ticked at %v; want %v, and cycle 0 before them for the witness", fired, *stepped, want)
		}
		if e.Now() != 1000 || e.ActiveTickers() != 0 {
			t.Fatalf("stopped at %d with %d tickers awake, want 1000 and none", e.Now(), e.ActiveTickers())
		}
	})

	t.Run("cut message sent at H lands at H+W", func(t *testing.T) {
		e := NewEngine(1)
		h, stepped := witness(e)
		var landed []Cycle
		pipe := NewPipe(e, func(int) { landed = append(landed, e.Now()); h.Wake() })
		// The tightest case: a message sent at H over a link whose delay
		// is exactly the window, with nothing else scheduled in between.
		e.At(100, func() { pipe.At(e.Now()+window, 1) })
		e.Run(1000)
		if want := []Cycle{104}; !reflect.DeepEqual(landed, want) || !reflect.DeepEqual(*stepped, append([]Cycle{0}, want...)) {
			t.Fatalf("message landed at %v, the witness ticked at %v; want %v, and cycle 0 before it for the witness", landed, *stepped, want)
		}
	})

	t.Run("until inside the skipped span", func(t *testing.T) {
		e := NewEngine(1)
		fired := Cycle(-1)
		e.At(100, func() { fired = e.Now() })
		e.Run(50)
		if e.Now() != 50 || fired != -1 {
			t.Fatalf("stopped at %d with the event fired at %d, want 50 and not fired", e.Now(), fired)
		}
		e.Run(1000)
		if fired != 100 || e.Now() != 1000 {
			t.Fatalf("event fired at %d after resume, stopped at %d; want 100 and 1000", fired, e.Now())
		}
	})

	t.Run("one awake ticker anywhere forbids the skip", func(t *testing.T) {
		e := NewEngine(1)
		witness(e)
		ticks := busy(e)
		fired := false
		e.At(100, func() { fired = true })
		e.Run(12)
		if e.Now() != 12 || *ticks != 12 || fired {
			t.Fatalf("stopped at %d after %d ticks, event fired %v; want 12 ticks, one a cycle, and no event", e.Now(), *ticks, fired)
		}
	})
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkEngineStep pins the per-cycle overhead trajectory: the cost
// of a cycle with nothing registered, with 64 sleeping components, and
// with 64 active ones.
func BenchmarkEngineStep(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		e := NewEngine(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	b.Run("idle64", func(b *testing.B) {
		e := NewEngine(1)
		for i := 0; i < 64; i++ {
			p := Phase(i % int(numPhases))
			e.AddTicker(p, func(Cycle) Cycle { return Never })
		}
		e.Step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	b.Run("busy64", func(b *testing.B) {
		e := NewEngine(1)
		var sink int
		for i := 0; i < 64; i++ {
			p := Phase(i % int(numPhases))
			e.AddTicker(p, func(now Cycle) Cycle { sink++; return now + 1 })
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}
