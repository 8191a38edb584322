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
	"repro/internal/trace"
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
	tree, err := topo.KaryNTree(2, 2, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEndpoints() != 4 {
		t.Fatalf("2-ary 2-tree has %d endpoints", tree.NumEndpoints())
	}
	net, err := network.Build(tree.Topology, core.PresetFBICM(), network.Options{Seed: 2, TieBreak: tree.DETTieBreak})
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

// TestHeadlineClaim is the paper's abstract in one test: CCFIT gives
// (a) immediate HoL removal like FBICM, (b) fairness like ITh, and
// (c) higher overall goodput than either alone under a hot spot.
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme comparison")
	}
	type outcome struct {
		victim float64
		jain   float64
	}
	run := func(name string) outcome {
		p, err := experiments.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := network.Build(topo.Config1(), p, network.Options{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		end := sim.CyclesFromMS(4)
		err = net.AddFlows([]traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0},
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 5, Src: 5, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 6, Src: 6, Dst: 4, Start: 0, End: end, Rate: 1.0},
		})
		if err != nil {
			t.Fatal(err)
		}
		net.RunMS(4)
		bins := len(net.Collector.TotalSeries(0))
		var shares []float64
		for _, f := range []int{1, 2, 5, 6} {
			shares = append(shares, net.Collector.MeanFlowBandwidth(f, bins/2, bins))
		}
		return outcome{
			victim: net.Collector.MeanFlowBandwidth(0, bins/2, bins),
			jain:   metrics.JainIndex(shares),
		}
	}
	oneq := run("1Q")
	fbicm := run("FBICM")
	ith := run("ITh")
	cc := run("CCFIT")

	// (a) victim protection: CCFIT ~ FBICM, both >> 1Q.
	if cc.victim < 2.0 || fbicm.victim < 2.0 {
		t.Fatalf("victim not protected: ccfit %.2f fbicm %.2f", cc.victim, fbicm.victim)
	}
	if oneq.victim > cc.victim*0.5 {
		t.Fatalf("1Q victim %.2f not visibly HoL-blocked vs %.2f", oneq.victim, cc.victim)
	}
	// (b) fairness: CCFIT ~ ITh, both clearly fairer than FBICM.
	if cc.jain < 0.97 || ith.jain < 0.97 {
		t.Fatalf("throttling schemes unfair: ccfit %.3f ith %.3f", cc.jain, ith.jain)
	}
	if fbicm.jain > 0.95 {
		t.Fatalf("FBICM unexpectedly fair (%.3f): parking lot not reproduced", fbicm.jain)
	}
}

func TestTracing(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	p := core.PresetCCFIT()
	p.Tracer = trace.Only(ring, trace.EvDetect, trace.EvDealloc, trace.EvMark)
	net, err := network.Build(topo.Config1(), p, network.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	end := sim.CyclesFromMS(2)
	err = net.AddFlows([]traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: end, Rate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.RunMS(3)
	counts := map[trace.EventKind]int{}
	for _, ev := range ring.Events() {
		counts[ev.Kind]++
		if ev.Kind != trace.EvDetect && ev.Kind != trace.EvDealloc && ev.Kind != trace.EvMark {
			t.Fatalf("filter leaked %v", ev.Kind)
		}
		if trace.Format(ev) == "" {
			t.Fatal("empty format")
		}
	}
	if counts[trace.EvDetect] == 0 || counts[trace.EvMark] == 0 {
		t.Fatalf("ring saw no protocol events: %v", counts)
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
