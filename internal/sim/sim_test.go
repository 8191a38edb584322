package sim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestUnitsRoundTrip(t *testing.T) {
	if CycleNS != 25.6 {
		t.Fatalf("CycleNS = %v, want 25.6", CycleNS)
	}
	if got := CyclesFromNS(25.6); got != 1 {
		t.Fatalf("CyclesFromNS(25.6) = %d, want 1", got)
	}
	if got := CyclesFromMS(1); got != 39063 { // round(1e6/25.6)
		t.Fatalf("CyclesFromMS(1) = %d, want 39063", got)
	}
	if got := NSFromCycles(10); got != 256 {
		t.Fatalf("NSFromCycles(10) = %v, want 256", got)
	}
	if got := MSFromCycles(39063); math.Abs(got-1.0) > 1e-4 {
		t.Fatalf("MSFromCycles(39063) = %v, want ~1.0", got)
	}
}

func TestCyclesFromNSRoundTripProperty(t *testing.T) {
	// Converting n cycles to ns and back must be the identity.
	f := func(n uint16) bool {
		c := Cycle(n)
		return CyclesFromNS(NSFromCycles(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(5, func() { got = append(got, 2) })
	e.At(3, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 3) }) // same cycle: FIFO
	e.At(0, func() { got = append(got, 0) })
	e.Run(10)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestEventsFireBeforePhases(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.AddTicker(PhaseInject, func(now Cycle) Cycle {
		if now == 4 {
			trace = append(trace, "phase")
		}
		return now + 1
	})
	e.At(4, func() { trace = append(trace, "event") })
	e.Run(6)
	if len(trace) != 2 || trace[0] != "event" || trace[1] != "phase" {
		t.Fatalf("trace = %v, want [event phase]", trace)
	}
}

// A Step is events, then PhaseInject, then the device phase, each in
// registration order — and a device an accepted Offer wakes from
// PhaseInject ticks in that same cycle.
func TestPhaseOrderWithinCycle(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	log := func(s string) func(Cycle) Cycle {
		return func(now Cycle) Cycle { trace = append(trace, s); return now + 1 }
	}
	e.AddTicker(PhaseDevice, log("dev0"))
	asleep := e.AddTicker(PhaseDevice, func(Cycle) Cycle {
		trace = append(trace, "dev1")
		return Never
	})
	e.AddTicker(PhaseInject, func(now Cycle) Cycle {
		trace = append(trace, "src0")
		asleep.Wake()
		return now + 1
	})
	e.AddTicker(PhaseDevice, log("checker"))
	e.AddTicker(PhaseInject, log("src1"))
	e.Step()
	if asleep.Awake() {
		t.Fatal("dev1 awake after its tick returned Never")
	}
	trace = nil
	e.At(1, func() { trace = append(trace, "event") })
	e.Step()
	if want := []string{"event", "src0", "src1", "dev0", "dev1", "checker"}; !eq(trace, want) {
		t.Fatalf("step order %v, want %v", trace, want)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	fired := Cycle(-1)
	e.Run(7)
	e.After(3, func() { fired = e.Now() })
	e.Run(20)
	if fired != 10 {
		t.Fatalf("After(3) from cycle 7 fired at %d, want 10", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(2, func() {})
}

func TestEventCascade(t *testing.T) {
	// An event scheduled for the current cycle from within an event
	// still fires in the same cycle.
	e := NewEngine(1)
	var hits []Cycle
	e.At(3, func() {
		e.At(3, func() { hits = append(hits, e.Now()) })
	})
	e.Run(5)
	if len(hits) != 1 || hits[0] != 3 {
		t.Fatalf("cascade hits = %v, want [3]", hits)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	ra, rb := a.RNG(), b.RNG()
	for i := 0; i < 100; i++ {
		if ra.Int63() != rb.Int63() {
			t.Fatal("same seed engines produced different streams")
		}
	}
	// Distinct streams from the same engine must differ.
	r2 := a.RNG()
	same := true
	for i := 0; i < 16; i++ {
		if ra.Int63() != r2.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two streams from one engine are identical")
	}
}

// eagerRNG is what Engine.RNG handed out before streams were seeded on
// first draw: the reference the lazy stream must equal bit for bit.
func eagerRNG(seed, seq int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + seq))
}

// mixedDraws exercises every entry point components use: Int63-backed
// (Intn, Float64, ExpFloat64, Perm) and the Source64 path (Uint64).
func mixedDraws(r *rand.Rand) []any {
	var out []any
	for i := 0; i < 40; i++ {
		out = append(out, r.Intn(7+i), r.Float64(), r.ExpFloat64(), r.Perm(5), r.Uint64(), r.Int63())
	}
	return out
}

func TestLazyRNGEqualsEagerStream(t *testing.T) {
	pairs := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		seed, seq := pairs.Int63n(1<<40)-1<<39, int64(1+pairs.Intn(2000))
		e := NewEngine(seed)
		e.rngSeq = seq - 1
		lazy, eager := e.RNG(), eagerRNG(seed, seq)
		if got, want := mixedDraws(lazy), mixedDraws(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d seq %d: lazy stream differs from rand.NewSource", seed, seq)
		}
		// Seed re-arms the stream, drawn or not.
		lazy.Seed(seq)
		eager.Seed(seq)
		if got, want := mixedDraws(lazy), mixedDraws(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d seq %d: streams differ after Seed", seed, seq)
		}
	}
}

func TestUndrawnRNGIsNearlyFree(t *testing.T) {
	e := NewEngine(5)
	var keep *rand.Rand
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		keep = e.RNG()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 100 {
		t.Fatalf("an undrawn stream allocates %d bytes, want < 100", per)
	}
	_ = keep.Int63()
}

func TestRunForAdvances(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	e.RunFor(5)
	if e.Now() != 15 {
		t.Fatalf("Now = %d, want 15", e.Now())
	}
}

func TestRegisterInvalidPhasePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid phase did not panic")
		}
	}()
	e.AddTicker(Phase(99), func(Cycle) Cycle { return Never })
}

func BenchmarkEngineIdleCycles(b *testing.B) {
	e := NewEngine(1)
	e.AddTicker(PhaseDevice, func(now Cycle) Cycle { return now + 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
