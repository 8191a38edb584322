package endnode_test

import (
	"math/rand"
	"testing"

	"repro/internal/endnode"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/oracle"
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

// The same reference over the oracle's fuzzed configurations — every
// topology and scheme of the decoder's pools, sources that stall and
// sources that do not, each run until it drains.
func TestSkippedNodeCyclesAreIdleFuzzed(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for i := 0; i < iters; i++ {
		in := oracle.FuzzInput{Topo: uint8(rng.Intn(256)), Scheme: uint8(rng.Intn(256)), Seed: rng.Uint32()}
		in.Flows = make([]byte, 8*(2+rng.Intn(5))) // 2 to 6 flow records, as oracle.Sweep draws them
		rng.Read(in.Flows)
		cfg := in.Decode()
		tp, err := oracle.TopoByName(cfg.Topo)
		if err != nil {
			t.Fatal(err)
		}
		p, err := experiments.SchemeByName(cfg.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		var counts []*int
		er, err := oracle.RunEngine(tp, p, network.Options{Seed: cfg.Seed}, cfg.Flows, func(n *network.Network) {
			for _, nd := range n.Nodes {
				counts = append(counts, endnode.InstallReference(nd, func(format string, args ...any) {
					t.Errorf("config %d (%s/%s): "+format, append([]any{i, cfg.Topo, cfg.Scheme}, args...)...)
				}))
			}
		})
		if err != nil || len(er.Violations) != 0 || !er.Drained {
			t.Fatalf("config %d (%s/%s): err %v, drained %v, violations %v", i, cfg.Topo, cfg.Scheme, err, er.Drained, er.Violations)
		}
		for k, c := range counts {
			checked += *c
			if elided := er.Net.Nodes[k].Stats().CyclesElided; elided != *c {
				t.Errorf("config %d (%s/%s) node %d: CyclesElided %d, reference ran %d skipped cycles", i, cfg.Topo, cfg.Scheme, k, elided, *c)
			}
		}
	}
	t.Logf("checked %d skipped cycles over %d configs", checked, iters)
	if checked < 1000 {
		t.Fatalf("reference barely ran: %d cycles", checked)
	}
}
