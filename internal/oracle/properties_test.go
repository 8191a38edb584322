package oracle

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestPropertiesFixedConfigs pins the metamorphic suite on a few
// hand-written configurations covering each topology family and both
// shared- and per-destination-credit schemes.
func TestPropertiesFixedConfigs(t *testing.T) {
	t.Parallel()
	cases := []FuzzConfig{
		{
			Label: "fixed-star4-ccfit", Topo: "star4", Scheme: "CCFIT", Seed: 7,
			Flows: []RefFlow{
				{ID: 0, Src: 0, Dst: 3, Start: 0, End: 12_000, Rate: 0.40, Size: 2048},
				{ID: 1, Src: 1, Dst: 2, Start: 500, End: 9_000, Rate: 0.25, Size: 700},
				{ID: 2, Src: 2, Dst: 0, Start: 2_000, End: 15_000, Rate: 0.30, Size: 1024},
			},
		},
		{
			Label: "fixed-config1-voqnet", Topo: "config1", Scheme: "VOQnet", Seed: 11,
			Flows: []RefFlow{
				{ID: 0, Src: 0, Dst: 4, Start: 0, End: 10_000, Rate: 0.35, Size: 1500},
				{ID: 1, Src: 5, Dst: 1, Start: 1_000, End: 14_000, Rate: 0.45, Size: 512},
			},
		},
		{
			Label: "fixed-tree22-1q", Topo: "tree22", Scheme: "1Q", Seed: 3,
			Flows: []RefFlow{
				{ID: 0, Src: 0, Dst: 3, Start: 0, End: 8_000, Rate: 0.55, Size: 2048},
				{ID: 1, Src: 2, Dst: 1, Start: 0, End: 8_000, Rate: 0.50, Size: 256},
			},
		},
		{
			// A small incast onto the leaf-spine fabric: four sources on
			// three different leaves converge on endpoint 0 at rates that
			// sum below the sink link, so the run drains and the
			// reference-agreement property applies end to end.
			Label: "fixed-leafspine-ccfit", Topo: "leafspine", Scheme: "CCFIT", Seed: 13,
			Flows: []RefFlow{
				{ID: 0, Src: 1, Dst: 0, Start: 0, End: 10_000, Rate: 0.20, Size: 1024},
				{ID: 1, Src: 2, Dst: 0, Start: 500, End: 11_000, Rate: 0.20, Size: 2048},
				{ID: 2, Src: 4, Dst: 0, Start: 1_000, End: 12_000, Rate: 0.20, Size: 700},
				{ID: 3, Src: 5, Dst: 0, Start: 1_500, End: 9_000, Rate: 0.20, Size: 512},
			},
		},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(cfg.Label, func(t *testing.T) {
			t.Parallel()
			for _, err := range CheckConfig(cfg) {
				t.Error(err)
			}
		})
	}
}

// TestCCTMonotonic checks the paper's throttling-table structure:
// deeper congestion-control-table indices must never grant a shorter
// inter-request distance, and a deeper CCTI must never let MORE
// packets through a fixed horizon.
func TestCCTMonotonic(t *testing.T) {
	t.Parallel()
	for _, err := range CheckCCTMonotonic() {
		t.Error(err)
	}
}

// TestIRDStepMonotonic checks that widening the IRD step tightens the
// hot flows' delivered bytes (within tolerance) on the paper's
// hot-spot scenario.
func TestIRDStepMonotonic(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run hot-spot scenario; skipped in -short")
	}
	for _, err := range CheckIRDStepMonotonic() {
		t.Error(err)
	}
}

// runTampered executes the star scenario under CCFIT, handing the built
// network to tamper before any traffic is installed.
func runTampered(t *testing.T, tamper func(*network.Network)) *EngineRun {
	t.Helper()
	p, err := experiments.SchemeByName("CCFIT")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenarios()[0]
	tp := sc.Build()
	run, err := RunEngine(tp, p, network.Options{Seed: 1}, sc.Flows, tamper)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSelfCheckFaultsAreDirectional pins WHICH mechanism catches each
// seeded credit fault, so a refactor can't silently route both through
// one check (or none): a spurious 1 B refund must trip the runtime
// credit-bounds invariant, 256 B taken and never returned the
// post-drain restitution audit, and only that. The kill matrix
// (internal/mutants) holds the same checks against credit mutants in
// CreditPool.Give itself.
func TestSelfCheckFaultsAreDirectional(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		tamper func(*network.Network)
		want   string
		only   bool // the one violation of the run
	}{
		{"spurious refund", func(n *network.Network) { n.Nodes[0].CreditPool().Give(0, 1) }, "exceeds capacity", false},
		{"leaked credit", func(n *network.Network) { n.Nodes[0].CreditPool().Take(0, 256) }, "256 B of credit leaked", true},
	} {
		run := runTampered(t, tc.tamper)
		if tc.only && len(run.Violations) != 1 {
			t.Errorf("%s: %d violations, want 1: %q", tc.name, len(run.Violations), run.Violations)
		}
		found := false
		for _, v := range run.Violations {
			if strings.Contains(v, tc.want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no violation mentioning %q; got %q", tc.name, tc.want, run.Violations)
		}
	}
}

// TestHealthyRunHasNoViolations is the control group of the seeded
// faults above: the same scenario untampered must produce zero
// violations, drain, and reject nothing — otherwise the fault tests
// prove only that the harness complains about everything.
func TestHealthyRunHasNoViolations(t *testing.T) {
	t.Parallel()
	p, err := experiments.SchemeByName("CCFIT")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenarios()[0]
	tp := sc.Build()
	run, err := RunEngine(tp, p, network.Options{Seed: 1}, sc.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Violations) != 0 || !run.Drained || run.Rejected != 0 {
		t.Fatalf("healthy control run: violations=%q drained=%v rejected=%d",
			run.Violations, run.Drained, run.Rejected)
	}
	if _, db := run.Net.TotalDelivered(); db == 0 {
		t.Fatal("healthy control run delivered nothing (vacuous scenario)")
	}
}

// TestMetricsAccountEveryDelivery runs property 5 on the Config #1 hot
// spot, where the hot sink takes well over a thousand packets: a deliver
// hook skipped once in a while anywhere on that path shows here, where
// the fuzzer's short configs may never reach it.
func TestMetricsAccountEveryDelivery(t *testing.T) {
	p, err := experiments.SchemeByName("CCFIT")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunEngine(topo.Config1(), p, network.Options{Seed: hotspotSeed}, hotspotFlows(sim.CyclesFromMS(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Net.Nodes[4].Stats().Delivered; got < 1000 {
		t.Fatalf("the hot sink took %d packets, want at least 1000", got)
	}
	if err := checkAccounting(run.Net); err != nil {
		t.Fatal(err)
	}
}
