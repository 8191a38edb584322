package endnode_test

import (
	"testing"

	"repro/internal/endnode"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// elisionCells is the table of the switchfab suite (see there): blocked
// congestion trees under the dynamic, the marking (and throttling) and
// the per-destination disciplines, the finite-flow incast, the flap.
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

// Every cycle a node skips is executed on the side and must inject
// nothing, send nothing and leave its output buffer alone.
func TestSkippedNodeCyclesAreIdle(t *testing.T) {
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
			var counts []*int
			for _, nd := range n.Nodes {
				counts = append(counts, endnode.InstallReference(nd, t.Errorf))
			}
			n.Run(c.cycles)
			checked, elided := 0, 0
			for i, k := range counts {
				checked += *k
				elided += n.Nodes[i].Stats().CyclesElided
			}
			t.Logf("checked %d skipped cycles; CyclesElided %d", checked, elided)
			if checked < 1000 {
				t.Fatalf("reference barely ran: %d cycles", checked)
			}
			if elided != checked {
				t.Fatalf("CyclesElided %d, reference ran %d skipped cycles", elided, checked)
			}
		})
	}
}
