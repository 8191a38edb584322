package experiments

import "testing"

// Engine.Work — events fired plus ticks dispatched — and the events
// pending at a fixed cycle are a pure function of the simulation, so
// neither may drift silently: a change that moves them re-takes the pin once, deliberately,
// with the old and new figures in CHANGES.md. The split (Counts) is pinned
// beside the sum: an awake device-cycle is one tick, so a change that
// moves ticks and no event changed how devices sleep, not what they do.
// These are PR 24's (a device is one ticker: Work 173892 / 154081 /
// 164987; the three-tickers-a-device engine before it stood at the same
// events, 178702 / 164822 / 167246 ticks and Work 285614 / 256509 /
// 269445). Pending stood at 30 / 16 / 34 while a generator armed two
// events a flow at build; it now arms its window edges one at a time.
// Deliveries say the simulation itself did not move.
func TestEngineWorkPinned(t *testing.T) {
	for _, c := range []struct {
		scheme             string
		wheel, heap, ticks uint64
		pending            int
		delivered          int
	}{
		{"CCFIT", 106720, 192, 66980, 24, 9574},
		{"1Q", 91495, 192, 62394, 10, 9150},
		{"ITh", 102007, 192, 62788, 28, 9324},
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
		wheel, heap, ticks := n.Eng.Counts()
		if wheel != c.wheel || heap != c.heap || ticks != c.ticks || n.Eng.Pending() != c.pending || delivered != c.delivered {
			t.Errorf("fig7a/%s at cycle %d: %d wheel events, %d heap events, %d ticks, %d events pending, %d delivered; want %d, %d, %d, %d, %d",
				c.scheme, n.Eng.Now(), wheel, heap, ticks, n.Eng.Pending(), delivered, c.wheel, c.heap, c.ticks, c.pending, c.delivered)
		}
		if got := n.Eng.Work(); got != wheel+heap+ticks {
			t.Errorf("fig7a/%s: Work %d is not the sum of Counts %d + %d + %d", c.scheme, got, wheel, heap, ticks)
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
