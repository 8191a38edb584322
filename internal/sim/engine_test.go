package sim

import (
	"fmt"
	"testing"
)

// An event scheduled from inside Step (here: from a phase tick) for the
// current cycle must not be lost: phases run after the event pass, so
// it fires in the next cycle's event pass, before that cycle's phases.
func TestEventScheduledDuringStepForCurrentCycle(t *testing.T) {
	e := NewEngine(1)
	var fired []Cycle
	armed := false
	e.AddTicker(PhaseDevice, func(now Cycle) {
		if now == 5 && !armed {
			armed = true
			e.At(now, func() { fired = append(fired, e.Now()) })
		}
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
	e.AddTicker(PhaseInject, func(Cycle) { order = append(order, "inject") })
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
	h := e.AddTicker(PhaseDevice, func(Cycle) {})
	h.Sleep()
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
	hEarly = e.AddTicker(PhaseDevice, func(now Cycle) {
		runs = append(runs, "early")
	})
	e.AddTicker(PhaseDevice, func(now Cycle) {
		runs = append(runs, "mid")
		if now == 0 {
			hEarly.Wake() // already passed this cycle: next cycle
			hLate.Wake()  // still ahead this cycle: runs now
		}
	})
	hLate = e.AddTicker(PhaseDevice, func(now Cycle) {
		runs = append(runs, "late")
	})
	hEarly.Sleep()
	hLate.Sleep()
	e.Step()
	if want := []string{"mid", "late"}; !eq(runs, want) {
		t.Fatalf("cycle 0 runs = %v, want %v", runs, want)
	}
	runs = nil
	e.Step()
	if want := []string{"early", "mid", "late"}; !eq(runs, want) {
		t.Fatalf("cycle 1 runs = %v, want %v", runs, want)
	}
}

func TestWakeSleepIdempotent(t *testing.T) {
	e := NewEngine(1)
	h := e.AddTicker(PhaseDevice, func(Cycle) {})
	if !h.Awake() || e.ActiveTickers() != 1 {
		t.Fatal("tickers must start awake")
	}
	h.Wake()
	h.Wake()
	if e.ActiveTickers() != 1 {
		t.Fatalf("double Wake counted twice: ActiveTickers = %d", e.ActiveTickers())
	}
	h.Sleep()
	h.Sleep()
	if h.Awake() || e.ActiveTickers() != 0 {
		t.Fatalf("double Sleep: Awake=%v ActiveTickers=%d", h.Awake(), e.ActiveTickers())
	}
}

// More than 64 tickers exercises the multi-word active-list bitmap.
func TestActiveListAcrossBitmapWords(t *testing.T) {
	e := NewEngine(1)
	const n = 130
	var order []int
	handles := make([]*TickerHandle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = e.AddTicker(PhaseInject, func(Cycle) {
			order = append(order, i)
		})
	}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			handles[i].Sleep()
		}
	}
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
			e.AddTicker(p, func(Cycle) {}).Sleep()
		}
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
			e.AddTicker(p, func(Cycle) { sink++ })
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	// The same 64-ticker load sharded over eight coordinated engines:
	// per-cycle cost of the partitioned path, including window barriers.
	// workers=1 isolates the coordinator's own overhead against busy64;
	// on a multi-core host workers=2 and 4 show the parallel speedup (on
	// a single core they measure pure coordination cost instead).
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("busy64par/workers=%d", workers), func(b *testing.B) {
			const shards = 8
			engines := NewEngineGroup(1, shards)
			sinks := make([]int, shards)
			for i := 0; i < 64; i++ {
				e, s := engines[i%shards], &sinks[i%shards]
				p := Phase(i % int(numPhases))
				e.AddTicker(p, func(Cycle) { *s++ })
			}
			par := NewParallel(engines, workers, 64, nil)
			b.ReportAllocs()
			b.ResetTimer()
			par.Run(Cycle(b.N))
		})
	}
}
