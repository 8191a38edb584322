package ccfit_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestSteadyStateZeroAlloc is the allocation gate of the per-cycle hot
// path: once a fault-free serial run is past warm-up (every ring, scratch
// slice and free-list has reached its working size), advancing the
// network allocates nothing. fig7a/CCFIT exercises the isolation unit,
// CAMs, FECN/BECN and throttling on Config #1; fig8b/1Q saturates the
// 64-endpoint fat tree under uniform traffic plus four hot spots.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const window = 4096
	for _, c := range []struct {
		exp, scheme, at string
		warmupMS        float64
	}{
		// Windows sit inside a stable traffic phase of each case: all of
		// fig7a's flows are active at 7 ms; at 2.6 ms fig8b's hot-spot
		// burst is over and the packets it released cover the uniform
		// sources' slowly growing backlog, so the packet population stays
		// under its high-water mark.
		{"fig7a", "CCFIT", "", 7},
		{"fig8b", "1Q", "", 2.6},
		// From 3 ms the measured window (AllocsPerRun's second) crosses bin
		// 64, 3.2 ms at 50 us bins, where the per-flow and total series
		// grew by doubling while they grew one bin at a time; they have
		// room to the horizon from their first delivery on.
		{"fig7a", "CCFIT", "@3ms", 3},
		{"fig8b", "1Q", "@3ms", 3},
	} {
		t.Run(c.exp+"/"+c.scheme+c.at, func(t *testing.T) {
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
			n.Run(sim.CyclesFromMS(c.warmupMS))
			before, _ := n.TotalDelivered()
			allocs := testing.AllocsPerRun(1, func() { n.Run(window) })
			after, _ := n.TotalDelivered()
			if after == before {
				t.Fatal("no packet was delivered during the measured windows: not a steady-state run")
			}
			if allocs != 0 {
				t.Fatalf("%v allocations per %d-cycle Network.Run window in steady state, want 0", allocs, window)
			}
		})
	}
}
