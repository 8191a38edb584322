package ccfit_test

import (
	"path/filepath"

	"bytes"
	"repro/internal/experiments"
	"strings"
	"testing"

	ccfit "repro"
)

func TestSchemePresets(t *testing.T) {
	names := []string{"1Q", "FBICM", "ITh", "CCFIT", "VOQnet", "DBBM", "VOQsw", "OBQA"}
	if got := len(ccfit.Schemes()); got != len(names) {
		t.Fatalf("%d presets, want %d", got, len(names))
	}
	for _, n := range names {
		p, err := ccfit.Scheme(n)
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
	if _, err := ccfit.Scheme("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// Direct constructors agree with the registry.
	if ccfit.CCFIT().Name != "CCFIT" || ccfit.OneQ().Name != "1Q" ||
		ccfit.FBICM().Name != "FBICM" || ccfit.ITh().Name != "ITh" ||
		ccfit.VOQnet().Name != "VOQnet" || ccfit.DBBM().Name != "DBBM" ||
		ccfit.VOQswOnly().Name != "VOQsw" || ccfit.OBQA().Name != "OBQA" {
		t.Fatal("preset constructors mislabeled")
	}
}

func TestPublicBuildAndRun(t *testing.T) {
	net, err := ccfit.Build(ccfit.Config1(), ccfit.CCFIT(), ccfit.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = net.AddFlows([]ccfit.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: ccfit.MS(0.2), Rate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.RunMS(0.4)
	if net.Collector.DeliveredPkts == 0 {
		t.Fatal("nothing delivered via the public API")
	}
	op, _ := net.TotalOffered()
	dp, _ := net.TotalDelivered()
	if op != dp {
		t.Fatalf("lossless violated: %d vs %d", op, dp)
	}
}

func TestPublicFatTree(t *testing.T) {
	tree, err := ccfit.KaryNTree(2, 2, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEndpoints() != 4 {
		t.Fatalf("2-ary 2-tree has %d endpoints", tree.NumEndpoints())
	}
	net, err := ccfit.BuildFatTree(tree, ccfit.FBICM(), ccfit.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = net.AddFlows([]ccfit.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: ccfit.MS(0.1), Rate: 1.0},
		{ID: 1, Src: 1, Dst: ccfit.UniformDst, Start: 0, End: ccfit.MS(0.1), Rate: 0.5},
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
	b := ccfit.NewTopology("dumbbell")
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
	net, err := ccfit.Build(topo, ccfit.OneQ(), ccfit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddFlows([]ccfit.Flow{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3200, Rate: 1}}); err != nil {
		t.Fatal(err)
	}
	net.Run(6400)
	if dp, _ := net.TotalDelivered(); dp < 95 {
		t.Fatalf("delivered %d, want ~100", dp)
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	if len(ccfit.Experiments()) != 9 {
		t.Fatalf("registry size %d", len(ccfit.Experiments()))
	}
	exp, err := ccfit.ExperimentByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ccfit.MS(0.3)
	r, err := ccfit.RunExperiment(exp, "1Q", 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ccfit.RenderThroughput(&buf, exp, []*ccfit.Result{r})
	ccfit.RenderSummary(&buf, []*ccfit.Result{r})
	ccfit.WriteCSV(&buf, exp, []*ccfit.Result{r})
	if !strings.Contains(buf.String(), "1Q") {
		t.Fatal("renderers produced nothing")
	}
	buf.Reset()
	ccfit.RenderTable1(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("table renderer broken")
	}
}

func TestUnitHelpers(t *testing.T) {
	if ccfit.MS(1) != 39063 {
		t.Fatalf("MS(1) = %d", ccfit.MS(1))
	}
	if ccfit.NS(25.6) != 1 {
		t.Fatalf("NS(25.6) = %d", ccfit.NS(25.6))
	}
	if j := ccfit.JainIndex([]float64{1, 1}); j != 1 {
		t.Fatalf("JainIndex = %v", j)
	}
	if ccfit.MTU != 2048 {
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
		p, err := ccfit.Scheme(name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := ccfit.Build(ccfit.Config1(), p, ccfit.Options{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		end := ccfit.MS(4)
		err = net.AddFlows([]ccfit.Flow{
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
			jain:   ccfit.JainIndex(shares),
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

func TestFacadeTracing(t *testing.T) {
	ring := ccfit.NewTraceRing(1 << 16)
	p := ccfit.CCFIT()
	p.Tracer = ccfit.TraceOnly(ring, ccfit.EvDetect, ccfit.EvDealloc, ccfit.EvMark)
	net, err := ccfit.Build(ccfit.Config1(), p, ccfit.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	end := ccfit.MS(2)
	err = net.AddFlows([]ccfit.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: end, Rate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.RunMS(3)
	counts := map[ccfit.TraceKind]int{}
	for _, ev := range ring.Events() {
		counts[ev.Kind]++
		if ev.Kind != ccfit.EvDetect && ev.Kind != ccfit.EvDealloc && ev.Kind != ccfit.EvMark {
			t.Fatalf("filter leaked %v", ev.Kind)
		}
		if ccfit.FormatTraceEvent(ev) == "" {
			t.Fatal("empty format")
		}
	}
	if counts[ccfit.EvDetect] == 0 || counts[ccfit.EvMark] == 0 {
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
	byName := map[string]*ccfit.FaultScript{}
	for _, p := range paths {
		s, err := ccfit.LoadFaultScript(p)
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
