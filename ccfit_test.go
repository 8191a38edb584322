package ccfit_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestSchemePresets(t *testing.T) {
	names := []string{"1Q", "FBICM", "ITh", "CCFIT", "VOQnet", "DBBM", "VOQsw", "OBQA"}
	if got := len(experiments.AllSchemes()); got != len(names) {
		t.Fatalf("%d presets, want %d", got, len(names))
	}
	for _, n := range names {
		p, err := experiments.SchemeByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != n {
			t.Fatalf("Scheme(%q).Name = %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := experiments.SchemeByName("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// Direct constructors agree with the registry.
	if core.PresetCCFIT().Name != "CCFIT" || core.Preset1Q().Name != "1Q" ||
		core.PresetFBICM().Name != "FBICM" || core.PresetITh().Name != "ITh" ||
		core.PresetVOQnet().Name != "VOQnet" || core.PresetDBBM().Name != "DBBM" ||
		core.PresetVOQswOnly().Name != "VOQsw" || core.PresetOBQA().Name != "OBQA" {
		t.Fatal("preset constructors mislabeled")
	}
}

func TestPublicBuildAndRun(t *testing.T) {
	net, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = net.AddFlows([]traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: sim.CyclesFromMS(0.2), Rate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.RunMS(0.4)
	if net.Collector.DeliveredPkts == 0 {
		t.Fatal("nothing delivered")
	}
	op, _ := net.TotalOffered()
	dp, _ := net.TotalDelivered()
	if op != dp {
		t.Fatalf("lossless violated: %d vs %d", op, dp)
	}
}

func TestPublicFatTree(t *testing.T) {
	tree, err := topo.KaryNTree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEndpoints() != 4 {
		t.Fatalf("2-ary 2-tree has %d endpoints", tree.NumEndpoints())
	}
	net, err := network.Build(tree.Topology, core.PresetFBICM(), network.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = net.AddFlows([]traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: sim.CyclesFromMS(0.1), Rate: 1.0},
		{ID: 1, Src: 1, Dst: traffic.UniformDst, Start: 0, End: sim.CyclesFromMS(0.1), Rate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.RunMS(0.3)
	op, _ := net.TotalOffered()
	dp, _ := net.TotalDelivered()
	if op == 0 || op != dp {
		t.Fatalf("fat-tree run lost packets: %d vs %d", op, dp)
	}
}

func TestPublicCustomTopology(t *testing.T) {
	b := topo.NewBuilder("dumbbell")
	n0 := b.AddEndpoint("n0")
	n1 := b.AddEndpoint("n1")
	s0 := b.AddSwitch("s0", 2)
	s1 := b.AddSwitch("s1", 2)
	b.Connect(n0, 0, s0, 0)
	b.Connect(n1, 0, s1, 0)
	b.Connect(s0, 1, s1, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.Build(topo, core.Preset1Q(), network.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddFlows([]traffic.Flow{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3200, Rate: 1}}); err != nil {
		t.Fatal(err)
	}
	net.Run(6400)
	if dp, _ := net.TotalDelivered(); dp < 95 {
		t.Fatalf("delivered %d, want ~100", dp)
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(experiments.Registry()) != 9 {
		t.Fatalf("registry size %d", len(experiments.Registry()))
	}
	exp, err := experiments.ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = sim.CyclesFromMS(0.3)
	r, err := experiments.Run(exp, "1Q", 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderThroughput(&buf, exp, []*experiments.Result{r})
	experiments.RenderSummary(&buf, []*experiments.Result{r})
	experiments.WriteCSV(&buf, exp, []*experiments.Result{r})
	if !strings.Contains(buf.String(), "1Q") {
		t.Fatal("renderers produced nothing")
	}
	buf.Reset()
	experiments.RenderTable1(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("table renderer broken")
	}
}

func TestUnitHelpers(t *testing.T) {
	if sim.CyclesFromMS(1) != 39063 {
		t.Fatalf("MS(1) = %d", sim.CyclesFromMS(1))
	}
	if sim.CyclesFromNS(25.6) != 1 {
		t.Fatalf("NS(25.6) = %d", sim.CyclesFromNS(25.6))
	}
	if j := metrics.JainIndex([]float64{1, 1}); j != 1 {
		t.Fatalf("JainIndex = %v", j)
	}
	if pkt.MTU != 2048 {
		t.Fatal("MTU constant wrong")
	}
}

// TestShippedFaultScriptsLoad keeps the example scripts under
// scripts/faults/ loadable: they are the documented entry point for
// -faults and a stale field name there would fail only at runtime.
func TestShippedFaultScriptsLoad(t *testing.T) {
	paths, err := filepath.Glob("scripts/faults/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped fault scripts found: %v", err)
	}
	byName := map[string]*fault.Script{}
	for _, p := range paths {
		s, err := fault.Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		byName[s.Name] = s
	}
	// The flap script on disk must stay in lockstep with the xfaultflap
	// experiment's embedded copy — same scenario, two entry points.
	disk, ok := byName["config1-root-flap"]
	if !ok {
		t.Fatal("config1-root-flap.json missing")
	}
	if got, want := disk.Fingerprint(), experiments.RootFlapScript().Fingerprint(); got != want {
		t.Fatalf("shipped script diverged from xfaultflap:\n disk: %s\n code: %s", got, want)
	}
}
