package sim

import (
	"math/rand"
	"testing"
)

// ActiveSet against a plain []bool model: membership, count and the
// ascending Next walk, across word boundaries.
func TestActiveSetMatchesBoolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 63, 64, 65, 130, 512} {
		var s ActiveSet
		s.Grow(size)
		model := make([]bool, size)
		count := 0
		for step := 0; step < 2000; step++ {
			i := rng.Intn(size)
			if rng.Intn(2) == 0 {
				if s.Add(i) == model[i] {
					t.Fatalf("size %d: Add(%d) reported %v with model %v", size, i, !model[i], model[i])
				}
				if !model[i] {
					model[i] = true
					count++
				}
			} else {
				if s.Remove(i) != model[i] {
					t.Fatalf("size %d: Remove(%d) disagrees with model", size, i)
				}
				if model[i] {
					model[i] = false
					count--
				}
			}
			if s.Len() != count || s.Has(i) != model[i] {
				t.Fatalf("size %d: Len %d Has(%d) %v, model %d %v", size, s.Len(), i, s.Has(i), count, model[i])
			}
			from := rng.Intn(size + 70) // also past the end
			want := -1
			for j := from; j < size; j++ {
				if model[j] {
					want = j
					break
				}
			}
			if got := s.Next(from); got != want {
				t.Fatalf("size %d: Next(%d) = %d, want %d", size, from, got, want)
			}
		}
	}
}

// A walk sees members added above the cursor and not those added at or
// below it — the property tickList.tick relies on.
func TestActiveSetWalkSeesLaterAdditions(t *testing.T) {
	var s ActiveSet
	s.Grow(200)
	s.Add(3)
	s.Add(70)
	var seen []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		seen = append(seen, i)
		if i == 3 {
			s.Add(1)   // behind the cursor: next walk
			s.Add(128) // ahead: this walk
			s.Remove(70)
		}
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 128 {
		t.Fatalf("walk visited %v, want [3 128]", seen)
	}
}

func TestPipeDeliversInOrderAtTheRightCycles(t *testing.T) {
	eng := NewEngine(1)
	type rx struct {
		at Cycle
		v  int
	}
	var got []rx
	p := NewPipe(eng, func(v int) { got = append(got, rx{eng.Now(), v}) })
	// Interleave with a plain event at the same cycle: scheduling order
	// is firing order, pipe or not.
	p.At(5, 1)
	eng.At(5, func() { got = append(got, rx{eng.Now(), -1}) })
	p.At(5, 2)
	for v := 3; v < 40; v++ { // grows the ring several times
		p.At(Cycle(5+v), v)
	}
	if p.Len() != 39 {
		t.Fatalf("Len = %d, want 39", p.Len())
	}
	eng.Run(10)
	p.At(60, 40) // pushed while the ring is part-drained (wrapped head)
	eng.Run(100)
	want := []rx{{5, 1}, {5, -1}, {5, 2}}
	for v := 3; v < 40; v++ {
		want = append(want, rx{Cycle(5 + v), v})
	}
	want = append(want, rx{60, 40})
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after the run", p.Len())
	}
}

func TestPipeRejectsDecreasingDelivery(t *testing.T) {
	eng := NewEngine(1)
	p := NewPipe(eng, func(int) {})
	p.At(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a delivery scheduled before its predecessor did not panic")
		}
	}()
	p.At(9, 2)
}

func TestSleepUntilWakesAtCycle(t *testing.T) {
	eng := NewEngine(1)
	var ticks [64]Cycle
	n := 0
	var h *TickerHandle
	h = eng.AddTicker(PhaseDevice, func(now Cycle) {
		ticks[n] = now
		n++
		h.SleepUntil(now + 10)
	})
	eng.Run(35)
	if n != 4 || ticks[0] != 0 || ticks[1] != 10 || ticks[2] != 20 || ticks[3] != 30 {
		t.Fatalf("ticked at %v, want [0 10 20 30]", ticks[:n])
	}
	if allocs := testing.AllocsPerRun(10, func() { eng.RunFor(10) }); allocs != 0 {
		t.Fatalf("self-pacing allocates %v per period", allocs)
	}
}
