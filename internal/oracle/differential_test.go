package oracle

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/network"
)

// TestDifferentialAllSchemes is the quick-tier differential: every
// stock scenario under every paper scheme must match the reference
// simulator exactly on delivered counts and sit inside the latency
// band. This is the oracle's core guarantee and it runs on every
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
				rep, err := RunDiff(sc, name, p, 1, DefaultBand())
				if err != nil {
					t.Fatal(err)
				}
				logBandHeadroom(t, rep)
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

// TestDifferentialPartitionedEngine re-runs a scenario subset, as it did
// when it compared the partitioned engine with the serial one. With one
// engine left, the claim it guarded — a re-run reproduces the comparison
// exactly — is checked on the raw values: the differential passes, and a
// second engine run delivers every flow's packets with exactly the same
// latencies.
func TestDifferentialPartitionedEngine(t *testing.T) {
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
			rep, err := RunDiff(sc, "CCFIT", p, 1, DefaultBand())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Error(rep)
			}
			top, tb := sc.Build()
			runs := make([]*EngineRun, 2)
			for i := range runs {
				if runs[i], err = RunEngine(top, p, network.Options{Seed: 1, TieBreak: tb}, sc.Flows); err != nil {
					t.Fatal(err)
				}
			}
			if len(runs[0].Flows) == 0 || !reflect.DeepEqual(runs[0].Flows, runs[1].Flows) {
				t.Fatalf("two engine runs of %s disagree on per-flow deliveries", sc.Name)
			}
			delivered := 0
			for _, f := range runs[0].Flows {
				delivered += f.DeliveredPkts
			}
			if delivered != rep.EngPkts {
				t.Fatalf("engine run delivered %d pkts, the differential's %d", delivered, rep.EngPkts)
			}
		})
	}
}

// logBandHeadroom prints per-flow latency statistics in verbose runs,
// the data the DefaultBand constants were calibrated from.
func logBandHeadroom(t *testing.T, rep *DiffReport) {
	t.Logf("%s/%s: ref=%d eng=%d pkts", rep.Scenario, rep.Scheme, rep.RefPkts, rep.EngPkts)
}
