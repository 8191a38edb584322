package oracle

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestDifferentialAllSchemes is the quick-tier differential: every
// stock scenario under every paper scheme must match the reference
// simulator exactly on delivered counts, packet for packet on unshared
// paths, and within one MTU serialization of its mean on shared ones.
// This is the oracle's core guarantee and it runs on every
// `go test ./...`.
func TestDifferentialAllSchemes(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, name := range PaperSchemes {
			sc, name := sc, name
			t.Run(sc.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				p, err := experiments.SchemeByName(name)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := RunDiff(sc, name, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Error(rep)
				}
				if rep.EngPkts == 0 {
					t.Error("scenario delivered zero packets — vacuous differential")
				}
			})
		}
	}
}

// TestEngineRerunExact checks that the engine is a function of its
// inputs: two runs of the same scenario (CCFIT, seed 1) deliver packets
// of every flow, with exactly the same latencies. Beside the first two
// stock scenarios it runs Config #1 with a hot spot and a
// uniform-destination flow, which reach the iSLIP tie and the seeded
// destination draws the stock ones do not.
func TestEngineRerunExact(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) > 2 {
		scenarios = scenarios[:2]
	}
	// 1 ms holds many ties: at 0.1 ms, a tie broken by the wall clock
	// still replayed exactly in 6 runs of 20.
	end := sim.CyclesFromMS(1)
	scenarios = append(scenarios, DiffScenario{
		// Nodes 1 and 2 contend for swA's trunk output, and the trunk
		// and node 6 for node 4's output on swB. Once the trunk's input
		// on swB isolates destination 4 in a CFQ, its NFQ head (node 0's
		// packets for 3) and its CFQ head ask for two outputs at once,
		// and both can grant it in one round. Node 5 sends to a fresh
		// destination per packet.
		Name:  "config1-contended",
		Build: topo.Config1,
		Flows: []RefFlow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 0.50, Size: 2048},
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 0.90, Size: 2048},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 0.90, Size: 2048},
			{ID: 3, Src: 5, Dst: traffic.UniformDst, Start: 0, End: end, Rate: 0.40, Size: 1024},
			{ID: 4, Src: 6, Dst: 4, Start: 0, End: end, Rate: 0.90, Size: 2048},
		},
	})
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			p, err := experiments.SchemeByName("CCFIT")
			if err != nil {
				t.Fatal(err)
			}
			top := sc.Build()
			runs := make([]*EngineRun, 2)
			for i := range runs {
				if runs[i], err = RunEngine(top, p, network.Options{Seed: 1}, sc.Flows); err != nil {
					t.Fatal(err)
				}
			}
			// Two runs that deliver nothing agree too.
			for id, f := range runs[0].Flows {
				if f.DeliveredPkts == 0 {
					t.Fatalf("flow %d of %s delivered nothing", id, sc.Name)
				}
			}
			if len(runs[0].Flows) == 0 || !reflect.DeepEqual(runs[0].Flows, runs[1].Flows) {
				t.Fatalf("two engine runs of %s disagree on per-flow deliveries", sc.Name)
			}
		})
	}
}
