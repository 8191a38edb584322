package invariant_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestCheckerPacing pins what the checker costs the engine on an idle
// Config #1 network. A seeded fault that nothing repairs makes every audit
// report, so the violations' cycles are the audit cycles: a packet minted
// and never offered (the pool has it out, no buffer holds it), or a
// spurious credit return to a pool already at capacity. The devices tick
// once, at cycle 0, and sleep; after that only the checker runs.
func TestCheckerPacing(t *testing.T) {
	// At the default interval each audit's tick returns a deadline past the
	// calendar wheel: one heap event a period, nothing else.
	t.Run("every 1024 cycles", func(t *testing.T) {
		const periods = 5
		var audits []sim.Cycle
		n, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{
			Seed:        1,
			OnViolation: func(v *invariant.Violation) { audits = append(audits, v.Cycle) },
		})
		if err != nil {
			t.Fatal(err)
		}
		n.NewPacket(0, 3, 0)
		n.Run(periods * 1024)
		if want := []sim.Cycle{0, 1024, 2048, 3072, 4096}; !reflect.DeepEqual(audits, want) {
			t.Fatalf("audited at %v, want %v", audits, want)
		}
		devices := uint64(len(n.Nodes) + len(n.Switches))
		if wheel, heap, ticks := n.Eng.Counts(); wheel != 0 || heap != periods-1 || ticks != devices+periods {
			t.Fatalf("wheel %d, heap %d, ticks %d; want 0, %d, %d", wheel, heap, ticks, periods-1, devices+periods)
		}
		if n.Eng.Pending() != 1 {
			t.Fatalf("%d events pending, want the next audit's wake-up alone", n.Eng.Pending())
		}
	})

	// At an interval of one cycle the tick returns the next cycle: the
	// checker stays awake and schedules nothing. This checker is built
	// without the network's pool, so the credit bound is what fails.
	t.Run("every cycle", func(t *testing.T) {
		const cycles = 100
		n, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{Seed: 1, DisableInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		audits := 0
		invariant.Attach(n.Eng, invariant.Config{
			Nodes:       n.Nodes,
			Switches:    n.Switches,
			CheckEvery:  1,
			OnViolation: func(*invariant.Violation) { audits++ },
		})
		n.Nodes[3].CreditPool().Give(0, 1) // node 3's idle uplink pool sits at capacity
		n.Run(cycles)
		devices := uint64(len(n.Nodes) + len(n.Switches))
		if wheel, heap, ticks := n.Eng.Counts(); audits != cycles || wheel != 0 || heap != 0 || ticks != devices+cycles {
			t.Fatalf("%d audits, wheel %d, heap %d, ticks %d; want %d, 0, 0, %d", audits, wheel, heap, ticks, cycles, devices+cycles)
		}
		if n.Eng.Pending() != 0 || n.Eng.ActiveTickers() != 1 {
			t.Fatalf("%d events pending, %d tickers awake; want none and the checker", n.Eng.Pending(), n.Eng.ActiveTickers())
		}
	})
}
