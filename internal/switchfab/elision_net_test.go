package switchfab_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/oracle"
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
			elided, napped := 0, 0
			for i, rc := range counts {
				sum.Posts += rc.Posts
				sum.Updates += rc.Updates
				sum.Scans += rc.Scans
				sum.Drains += rc.Drains
				sum.Naps += rc.Naps
				elided += n.Switches[i].Stats().PortCyclesElided
				napped += n.Switches[i].Stats().CyclesNapped
			}
			t.Logf("checked %+v; PortCyclesElided %d, CyclesNapped %d", sum, elided, napped)
			if sum.Posts < 1000 || sum.Updates < 1000 || sum.Scans < 1000 || sum.Drains < 1000 || sum.Naps < 1000 {
				t.Fatalf("reference barely ran: %+v", sum)
			}
			if napped != sum.Naps {
				t.Fatalf("CyclesNapped %d, reference ran %d skipped switch ticks", napped, sum.Naps)
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

// The same reference over the oracle's fuzzed configurations — every
// topology and scheme of the decoder's pools, flows that saturate and
// flows that do not, each run until it drains: whatever a cool or parked
// port and a napping switch skip there must do nothing either.
func TestElidedSwitchWorkIsIdleFuzzed(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(42))
	var sum switchfab.RefCounts
	for i := 0; i < iters; i++ {
		in := oracle.FuzzInput{Topo: uint8(rng.Intn(256)), Scheme: uint8(rng.Intn(256)), Seed: rng.Uint32()}
		in.Flows = make([]byte, 8*(2+rng.Intn(5))) // 2 to 6 flow records, as oracle.Sweep draws them
		rng.Read(in.Flows)
		cfg := in.Decode()
		tp, tb, err := oracle.TopoByName(cfg.Topo)
		if err != nil {
			t.Fatal(err)
		}
		p, err := experiments.SchemeByName(cfg.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		var counts []*switchfab.RefCounts
		er, err := oracle.RunEngine(tp, p, network.Options{Seed: cfg.Seed, TieBreak: tb}, cfg.Flows, func(n *network.Network) {
			for _, sw := range n.Switches {
				sw := sw
				counts = append(counts, switchfab.InstallReference(sw, func(format string, args ...any) {
					t.Errorf("config %d (%s/%s): "+format, append([]any{i, cfg.Topo, cfg.Scheme}, args...)...)
				}))
			}
		})
		if err != nil || len(er.Violations) != 0 || !er.Drained {
			t.Fatalf("config %d (%s/%s): err %v, drained %v, violations %v", i, cfg.Topo, cfg.Scheme, err, er.Drained, er.Violations)
		}
		napped := 0
		for k, rc := range counts {
			sum.Posts += rc.Posts
			sum.Updates += rc.Updates
			sum.Scans += rc.Scans
			sum.Drains += rc.Drains
			sum.Naps += rc.Naps
			napped += er.Net.Switches[k].Stats().CyclesNapped - rc.Naps
		}
		if napped != 0 {
			t.Errorf("config %d (%s/%s): CyclesNapped is %d more than the skipped ticks the reference ran", i, cfg.Topo, cfg.Scheme, napped)
		}
	}
	t.Logf("checked %+v over %d configs", sum, iters)
	if sum.Posts < 1000 || sum.Updates < 1000 || sum.Scans < 1000 || sum.Drains < 1000 || sum.Naps < 1000 {
		t.Fatalf("reference barely ran: %+v", sum)
	}
}
