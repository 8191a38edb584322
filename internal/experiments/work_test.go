package experiments

import "testing"

// Engine.Work — events fired plus ticks dispatched — and the events
// pending at a fixed cycle are a pure function of the simulation, and the
// partition coordinator orders shards by Work, so neither may drift
// silently: a change that moves them re-takes the pin once, deliberately,
// with the old and new figures in CHANGES.md. These are PR 22's (switches
// that nap to their deadline; the every-tick-dispatches engine before it
// stood at 1596332 / 1570461 / 1569350 with 13 / 6 / 11 pending, and the
// extra pending events are wake-ups gone stale, dropped when they fire).
// Deliveries say the simulation itself did not move.
func TestEngineWorkPinned(t *testing.T) {
	for _, c := range []struct {
		scheme    string
		work      uint64
		pending   int
		delivered int
	}{
		{"CCFIT", 285614, 30, 9574},
		{"1Q", 256509, 16, 9150},
		{"ITh", 269445, 34, 9324},
	} {
		exp, err := ByID("fig7a")
		if err != nil {
			t.Fatal(err)
		}
		p, err := SchemeByName(c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(exp.Duration / 2)
		delivered, _ := n.TotalDelivered()
		if got := n.Eng.Work(); got != c.work || n.Eng.Pending() != c.pending || delivered != c.delivered {
			t.Errorf("fig7a/%s at cycle %d: work %d, %d events pending, %d delivered; want %d, %d, %d",
				c.scheme, n.Eng.Now(), got, n.Eng.Pending(), delivered, c.work, c.pending, c.delivered)
		}
		e := n.Elided()
		if e.CoolPortCycles == 0 || e.SwitchCyclesSlept == 0 || e.NodeCyclesSkipped == 0 {
			t.Errorf("fig7a/%s: nothing elided (%+v): the pin proves nothing", c.scheme, e)
		}
		if e.WheelEvents+e.HeapEvents+e.Ticks != n.Eng.Work() || e.HeapEvents == 0 || e.HeapEvents*20 > e.WheelEvents {
			t.Errorf("fig7a/%s: %+v: wheel, heap and ticks must sum to Work %d, the heap taking the few far timers only", c.scheme, e, n.Eng.Work())
		}
	}
}
