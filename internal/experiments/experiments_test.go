package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{"table1", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9", "fig10"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s (paper order)", i, reg[i].ID, id)
		}
	}
	for _, e := range reg {
		if e.Title == "" || e.Paper == "" {
			t.Fatalf("%s lacks title or paper notes", e.ID)
		}
		if e.Kind != ConfigTable && (e.Duration <= 0 || e.Bin <= 0 || e.Build == nil) {
			t.Fatalf("%s not runnable", e.ID)
		}
		if e.Kind == FlowBandwidth && len(e.FlowIDs) == 0 {
			t.Fatalf("%s has no flows to plot", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig8b")
	if err != nil || e.ID != "fig8b" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, n := range []string{"1Q", "FBICM", "ITh", "CCFIT", "VOQnet", "DBBM"} {
		p, err := SchemeByName(n)
		if err != nil || p.Name != n {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := SchemeByName("RECN"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestCasesMatchPaperSchedules(t *testing.T) {
	end := ms(10)
	c1 := Case1(end)
	if len(c1) != 5 {
		t.Fatalf("case1 has %d flows", len(c1))
	}
	// F0 is the victim: active for the whole run, to node 3.
	if c1[0].ID != 0 || c1[0].Dst != 3 || c1[0].Start != 0 || c1[0].End != end {
		t.Fatalf("victim flow wrong: %+v", c1[0])
	}
	// Contributors hit node 4 at 2, 4, 6, 6 ms.
	starts := map[int]sim.Cycle{1: ms(2), 2: ms(4), 5: ms(6), 6: ms(6)}
	for _, f := range c1[1:] {
		if f.Dst != 4 {
			t.Fatalf("contributor %d aims at %d", f.ID, f.Dst)
		}
		if f.Start != starts[f.ID] {
			t.Fatalf("flow %d starts at %d", f.ID, f.Start)
		}
	}

	c2 := Case2(end)
	if len(c2) != 5 {
		t.Fatalf("case2 has %d flows", len(c2))
	}
	for _, f := range c2 {
		if f.Dst != Case2Hot {
			t.Fatalf("case2 flow %d not aimed at the hot node", f.ID)
		}
	}
	// F1 runs the whole simulation.
	if c2[0].ID != 1 || c2[0].Start != 0 {
		t.Fatalf("case2 persistent flow wrong: %+v", c2[0])
	}

	c3 := Case3(end)
	if len(c3) != 8 {
		t.Fatalf("case3 has %d flows, want 5+3 uniform", len(c3))
	}
	uniform := 0
	for _, f := range c3 {
		if f.Dst == traffic.UniformDst {
			uniform++
		}
	}
	if uniform != 3 {
		t.Fatalf("case3 has %d uniform flows", uniform)
	}
}

func TestCase4Structure(t *testing.T) {
	for _, trees := range []int{1, 4, 6} {
		flows, err := Case4(ms(4), trees)
		if err != nil {
			t.Fatal(err)
		}
		if len(flows) != 64 {
			t.Fatalf("%d flows, want 64", len(flows))
		}
		hotDests := map[int]bool{}
		hot, uni := 0, 0
		for _, f := range flows {
			if Case4IsHotFlow(f.ID) {
				hot++
				hotDests[f.Dst] = true
				if f.Start != ms(1) || f.End != ms(2) {
					t.Fatalf("hot flow %d window [%d,%d)", f.ID, f.Start, f.End)
				}
				if Case4IsHotFlow(f.Dst) {
					t.Fatalf("hot dest %d is itself a hot source", f.Dst)
				}
			} else {
				uni++
				if f.Dst != traffic.UniformDst {
					t.Fatalf("uniform flow %d has fixed dest", f.ID)
				}
			}
		}
		if hot != 16 || uni != 48 {
			t.Fatalf("hot=%d uni=%d, want 16/48 (25%%/75%%)", hot, uni)
		}
		if len(hotDests) != trees {
			t.Fatalf("%d distinct hot dests, want %d trees", len(hotDests), trees)
		}
	}
	if _, err := Case4(ms(4), 0); err == nil {
		t.Fatal("0 trees accepted")
	}
	if _, err := Case4(ms(4), 7); err == nil {
		t.Fatal("7 trees accepted")
	}
}

// TestRunTinyExperiment runs a scaled-down fig7a end to end and checks
// the result structure.
func TestRunTinyExperiment(t *testing.T) {
	exp, err := ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ms(0.5)
	r, err := Run(exp, "CCFIT", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "CCFIT" || r.ExpID != "fig7a" {
		t.Fatalf("result header %+v", r)
	}
	if len(r.Normalized) != len(r.TimeMS) || len(r.Normalized) == 0 {
		t.Fatalf("series lengths %d/%d", len(r.Normalized), len(r.TimeMS))
	}
	if r.Summary.DeliveredPkts == 0 {
		t.Fatal("nothing delivered")
	}
	if r.Summary.MeanNormalized <= 0 || r.Summary.MeanNormalized > 1 {
		t.Fatalf("mean normalized %v", r.Summary.MeanNormalized)
	}
	// Only the victim is active during the first 0.5 ms of case #1:
	// normalized throughput = 2.5/(7*2.5) = 1/7.
	if r.Normalized[len(r.Normalized)-1] < 0.10 || r.Normalized[len(r.Normalized)-1] > 0.17 {
		t.Fatalf("victim-only throughput %v, want ~0.143", r.Normalized[len(r.Normalized)-1])
	}
	if _, err := Run(exp, "bogus", 1); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

// TestRunIsAudited: Run is the front door of RunAll, the oracle's
// curves and the golden tests, so a corrupted run must come back as an
// error, never as a Result (and never as a panic). A spurious 1-byte
// credit return to an idle receiver is seeded early — the next periodic
// audit, every 1024 cycles, raises it mid-run — and then after the last
// periodic audit of the run, where only the terminal audit can see it.
func TestRunIsAudited(t *testing.T) {
	for _, c := range []struct {
		name string
		at   sim.Cycle
	}{
		{"mid-run", 100},
		{"after the last periodic audit", 3*1024 + 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			exp, err := ByID("fig7a")
			if err != nil {
				t.Fatal(err)
			}
			exp.Duration = 3*1024 + 512
			build := exp.Build
			exp.Build = func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				n, err := build(p, seed, bin, end, o)
				if err == nil {
					// Node 3 only receives: its uplink pool sits at capacity.
					n.Eng.At(c.at, func() { n.Nodes[3].CreditPool().Give(0, 1) })
				}
				return n, err
			}
			r, err := Run(exp, "CCFIT", 1)
			var v *invariant.Violation
			if !errors.As(err, &v) || v.Check != "credit-bounds" {
				t.Fatalf("Run returned (%v, %v), want a credit-bounds violation", r, err)
			}
			if !strings.Contains(v.Detail, "node 3") || v.Snapshot == "" {
				t.Errorf("violation does not name the broken pool: %q / snapshot %d bytes", v.Detail, len(v.Snapshot))
			}
		})
	}
}

func TestRunTableExperimentRejected(t *testing.T) {
	exp, _ := ByID("table1")
	if _, err := Run(exp, "CCFIT", 1); err == nil {
		t.Fatal("running table1 as a simulation accepted")
	}
}

func TestRunFlowExperimentPopulatesFlows(t *testing.T) {
	exp, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ms(0.5)
	r, err := Run(exp, "1Q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flows) != 5 {
		t.Fatalf("flow series %d, want 5", len(r.Flows))
	}
	// The victim (flow 0) is the only active flow initially.
	if r.Flows[0].ID != 0 || r.Flows[0].GBs[2] < 2.0 {
		t.Fatalf("victim series wrong: %+v", r.Flows[0])
	}
}

func TestWindowAndSteadyMeans(t *testing.T) {
	r := &Result{
		BinMS:  0.5,
		TimeMS: []float64{0, 0.5, 1.0, 1.5},
	}
	series := []float64{1, 2, 3, 4}
	if got := WindowMean(r, series, 0, 1); got != 1.5 {
		t.Fatalf("WindowMean = %v", got)
	}
	if got := WindowMean(r, series, 1, 2); got != 3.5 {
		t.Fatalf("WindowMean = %v", got)
	}
	if got := WindowMean(r, series, 9, 10); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
	if got := SteadyMean(series, 0.5); got != 3.5 {
		t.Fatalf("SteadyMean = %v", got)
	}
	if got := SteadyMean(nil, 0.5); got != 0 {
		t.Fatalf("SteadyMean(nil) = %v", got)
	}
	if got := SteadyMean(series, 0); got != 4 {
		t.Fatalf("SteadyMean(final bin) = %v", got)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, want := range []string{"Table I", "2-ary 3-tree", "4-ary 3-tree", "64", "48", "iSlip", "2048"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}

	exp, _ := ByID("fig7a")
	exp.Duration = ms(0.2)
	r, err := Run(exp, "1Q", 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderThroughput(&buf, exp, []*Result{r})
	if !strings.Contains(buf.String(), "1Q") || !strings.Contains(buf.String(), "t(ms)") {
		t.Fatalf("throughput render:\n%s", buf.String())
	}
	buf.Reset()
	RenderSummary(&buf, []*Result{r})
	if !strings.Contains(buf.String(), "delivered") {
		t.Fatal("summary render broken")
	}
	buf.Reset()
	WriteCSV(&buf, exp, []*Result{r})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_ms,1Q" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != len(r.TimeMS)+1 {
		t.Fatalf("csv rows %d", len(lines))
	}

	fexp, _ := ByID("fig9")
	fexp.Duration = ms(0.2)
	fr, err := Run(fexp, "1Q", 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderFlows(&buf, fexp, []*Result{fr})
	if !strings.Contains(buf.String(), "F0") {
		t.Fatal("flow render missing flows")
	}
	buf.Reset()
	WriteCSV(&buf, fexp, []*Result{fr})
	if !strings.Contains(buf.String(), "1Q_F0") {
		t.Fatal("flow csv missing columns")
	}
}

func TestBuildConfig2RejectsBadCase(t *testing.T) {
	p, _ := SchemeByName("1Q")
	if _, err := BuildConfig2(p, 1, ms(0.05), ms(0.1), 7, BuildOpts{}); err == nil {
		t.Fatal("bad case accepted")
	}
}

func TestExtrasRegistry(t *testing.T) {
	extras := Extras()
	if len(extras) == 0 {
		t.Fatal("no extra experiments registered")
	}
	seen := map[string]bool{}
	for _, e := range extras {
		if !strings.HasPrefix(e.ID, "x") {
			t.Fatalf("extra id %q should be x-prefixed to avoid clashing with paper figures", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate extra id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Build == nil || e.Duration <= 0 {
			t.Fatalf("extra %s incomplete", e.ID)
		}
		for _, s := range e.Schemes {
			if _, err := SchemeByName(s); err != nil {
				t.Fatalf("extra %s references unknown scheme %s", e.ID, s)
			}
		}
		// Extras resolve via ByID like paper figures.
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s): %v", e.ID, err)
		}
	}
}

// TestZeroDeliverySummaryFinite pins the zero-delivery guard: a run
// in which no packet ever arrives (here: no traffic at all; in the
// field: a pathological scheme or a scripted fault) must summarise and
// aggregate to zeros, never NaN or ±Inf — those would poison CSVs,
// manifests and downstream mean±sd tables.
func TestZeroDeliverySummaryFinite(t *testing.T) {
	exp := Experiment{
		ID:       "xempty",
		Kind:     Throughput,
		Duration: ms(0.1),
		Bin:      ms(0.05),
		Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
			return network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
		},
	}
	r, err := Run(exp, "CCFIT", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.DeliveredPkts != 0 {
		t.Fatalf("idle network delivered %d packets", r.Summary.DeliveredPkts)
	}
	check := func(name string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Summary.%s = %v on a zero-delivery run", name, v)
		}
	}
	check("AvgLatencyNS", r.Summary.AvgLatencyNS)
	check("MaxLatencyNS", r.Summary.MaxLatencyNS)
	check("P50LatencyNS", r.Summary.P50LatencyNS)
	check("P99LatencyNS", r.Summary.P99LatencyNS)
	check("MeanNormalized", r.Summary.MeanNormalized)
	for i, v := range r.Normalized {
		check("Normalized[bin]", v)
		_ = i
	}

	rep, err := Aggregate(exp, "CCFIT", []*Result{r})
	if err != nil {
		t.Fatal(err)
	}
	check("MeanNormalized (agg)", rep.MeanNormalized)
	check("StdNormalized (agg)", rep.StdNormalized)
	check("MeanDelivered (agg)", rep.MeanDelivered)
	check("StdDelivered (agg)", rep.StdDelivered)
}

// TestExtraFaultFlapRegistered: the xfaultflap scenario resolves,
// carries a valid fault script, and its Build injects that script
// without disturbing an ordinary short run.
func TestExtraFaultFlapRegistered(t *testing.T) {
	if err := RootFlapScript().Validate(); err != nil {
		t.Fatalf("shipped flap script invalid: %v", err)
	}
	exp, err := ByID("xfaultflap")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ms(0.4) // flap at 4 ms lies beyond this smoke run
	r, err := Run(exp, "CCFIT", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.DeliveredPkts == 0 {
		t.Fatal("xfaultflap delivered nothing")
	}
}

func TestExtraFairnessRuns(t *testing.T) {
	exp, err := ByID("xfairness")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ms(0.4)
	r, err := Run(exp, "OBQA", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flows) != 4 || r.Summary.DeliveredPkts == 0 {
		t.Fatalf("xfairness result incomplete: %d flows, %d pkts", len(r.Flows), r.Summary.DeliveredPkts)
	}
}
