package oracle

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/network"
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
// of every flow, with exactly the same latencies.
func TestEngineRerunExact(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) > 2 {
		scenarios = scenarios[:2]
	}
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
