package switchfab_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// elisionCells are the runs the reference hook rides along: the blocked
// congestion trees of Fig. 8b under the dynamic, the marking and the
// per-destination disciplines (through the 1 ms burst that builds the
// trees), the finite-flow incast, and the link flap (through the outage
// and the recovery). The endnode suite runs the same table.
var elisionCells = []struct {
	exp, scheme string
	cycles      sim.Cycle
}{
	{"fig8b", "CCFIT", 60_000},
	{"fig8b", "ITh", 60_000},
	{"fig8b", "VOQnet", 60_000},
	{"xleafincast", "CCFIT", 40_000},
	{"xfaultflap", "CCFIT", 200_000},
	{"xfaultflap", "1Q", 200_000},
}

// Every Post, Update, request scan and drain the port-granular elision
// skips is executed on the side and must do nothing.
func TestElidedSwitchWorkIsIdle(t *testing.T) {
	for _, c := range elisionCells {
		c := c
		t.Run(c.exp+"/"+c.scheme, func(t *testing.T) {
			exp, err := experiments.ByID(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			p, err := experiments.SchemeByName(c.scheme)
			if err != nil {
				t.Fatal(err)
			}
			n, err := exp.Build(p, 1, exp.Bin, exp.Duration, experiments.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			var counts []*switchfab.RefCounts
			for _, sw := range n.Switches {
				counts = append(counts, switchfab.InstallReference(sw, t.Errorf))
			}
			n.Run(c.cycles)
			var sum switchfab.RefCounts
			elided := 0
			for i, rc := range counts {
				sum.Posts += rc.Posts
				sum.Updates += rc.Updates
				sum.Scans += rc.Scans
				sum.Drains += rc.Drains
				elided += n.Switches[i].Stats().PortCyclesElided
			}
			t.Logf("checked %+v; PortCyclesElided %d", sum, elided)
			if sum.Posts < 1000 || sum.Updates < 1000 || sum.Scans < 1000 || sum.Drains < 1000 {
				t.Fatalf("reference barely ran: %+v", sum)
			}
			// The counter is kept at heat time, the reference counts ticks:
			// an elided cycle is one skipped Post and one skipped Update,
			// and the cycle start heats a port in skips its Post only.
			if elided != sum.Updates || elided > sum.Posts {
				t.Fatalf("PortCyclesElided %d, reference ran %d skipped Updates and %d skipped Posts", elided, sum.Updates, sum.Posts)
			}
		})
	}
}
