package experiments

import "testing"

// Ports that cool or park and nodes that skip do so behind a compare in
// the tick that still dispatches, never behind a wake-up event (a
// whole-switch sleep behind Engine.At was measured and lost to the heap
// traffic it added, DESIGN.md §5). Engine.Work — events fired plus ticks
// dispatched — and the heap depth at a fixed cycle therefore stand where
// they stood before any port could cool: the figures are those of commit
// de598aa, per delivered packet as much as in total. The partition
// coordinator orders shards by Work, so it must not drift silently.
func TestElisionSchedulesNoEvents(t *testing.T) {
	for _, c := range []struct {
		scheme    string
		work      uint64
		pending   int
		delivered int
	}{
		{"CCFIT", 1596332, 13, 9574},
		{"1Q", 1570461, 6, 9150},
		{"ITh", 1569350, 11, 9324},
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
		if ports, nodes := n.Elided(); ports == 0 || nodes == 0 {
			t.Errorf("fig7a/%s: nothing elided (%d port-cycles, %d node-cycles): the pin proves nothing", c.scheme, ports, nodes)
		}
	}
}
