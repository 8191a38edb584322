package network

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// buildC1 wires Configuration #1 with the given preset.
func buildC1(t *testing.T, p core.Params) *Network {
	t.Helper()
	n, err := Build(topo.Config1(), p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A switch wider than the engine's uint64 port masks is an input error:
// Build must refuse it with an error naming the limit, not panic. The
// endpoint count is unlimited, so the same leaf split over two switches
// builds.
func TestBuildRejectsSwitchWiderThan64Ports(t *testing.T) {
	leaf := func(width int) *topo.Topology {
		b := topo.NewBuilder("wide-leaf")
		b.SetDefaultLink(sim.FlitBytes, topo.DefaultLinkDelay)
		sw := b.AddSwitch("leaf", width)
		for e := 0; e < width; e++ {
			b.Connect(b.AddEndpoint(fmt.Sprintf("n%d", e)), 0, sw, e)
		}
		return b.MustBuild()
	}
	_, err := Build(leaf(65), core.Preset1Q(), Options{})
	if err == nil {
		t.Fatal("65-port switch accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "65 ports") || !strings.Contains(msg, "at most 64") {
		t.Fatalf("error does not name the switch width and the limit: %v", err)
	}
	// 64 ports is the full mask width: traffic through port 63 exercises
	// the top bit of every port set.
	n, err := Build(leaf(64), core.PresetCCFIT(), Options{})
	if err != nil {
		t.Fatalf("64-port switch rejected: %v", err)
	}
	addFlows(t, n, []traffic.Flow{
		{ID: 0, Src: 63, Dst: 0, Start: 0, End: 5_000, Rate: 1.0},
		{ID: 1, Src: 0, Dst: 63, Start: 0, End: 5_000, Rate: 1.0},
		{ID: 2, Src: 62, Dst: 63, Start: 0, End: 5_000, Rate: 1.0},
	})
	n.Run(40_000)
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if dp == 0 || op != dp {
		t.Fatalf("64-port switch: offered %d packets, delivered %d", op, dp)
	}
}

func addFlows(t *testing.T, n *Network, flows []traffic.Flow) {
	t.Helper()
	if err := n.AddFlows(flows); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFlowDelivers(t *testing.T) {
	n := buildC1(t, core.Preset1Q())
	addFlows(t, n, []traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: 10_000, Rate: 1.0},
	})
	n.Run(20_000) // generous drain time
	op, ob := n.TotalOffered()
	dp, db := n.TotalDelivered()
	if dp == 0 {
		t.Fatal("nothing delivered")
	}
	if op != dp || ob != db {
		t.Fatalf("lossless violated: offered %d/%dB, delivered %d/%dB", op, ob, dp, db)
	}
	// 10k cycles at 64 B/cyc offered = 640 KB = 312 MTUs; the path has
	// slack (hop latency) so expect nearly the full count.
	if dp < 300 {
		t.Fatalf("delivered %d packets, want ~312", dp)
	}
	if n.Collector.DeliveredPkts != int64(dp) {
		t.Fatalf("collector saw %d, nodes saw %d", n.Collector.DeliveredPkts, dp)
	}
}

func TestAllSchemesLossless(t *testing.T) {
	presets := []core.Params{
		core.Preset1Q(), core.PresetFBICM(), core.PresetITh(),
		core.PresetCCFIT(), core.PresetVOQnet(), core.PresetDBBM(),
	}
	for _, p := range presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			n := buildC1(t, p)
			// The paper's Case #1 shape, compressed: a victim plus
			// four hot-spot flows onto node 4.
			addFlows(t, n, []traffic.Flow{
				{ID: 0, Src: 0, Dst: 3, Start: 0, End: 30_000, Rate: 1.0},
				{ID: 1, Src: 1, Dst: 4, Start: 2_000, End: 30_000, Rate: 1.0},
				{ID: 2, Src: 2, Dst: 4, Start: 4_000, End: 30_000, Rate: 1.0},
				{ID: 5, Src: 5, Dst: 4, Start: 6_000, End: 30_000, Rate: 1.0},
				{ID: 6, Src: 6, Dst: 4, Start: 6_000, End: 30_000, Rate: 1.0},
			})
			n.Run(300_000) // long drain: every queued packet must get out
			op, ob := n.TotalOffered()
			dp, db := n.TotalDelivered()
			if op != dp || ob != db {
				t.Fatalf("%s: offered %d pkts/%d B, delivered %d/%d", p.Name, op, ob, dp, db)
			}
			if dp == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

func TestPerFlowFIFOOrder(t *testing.T) {
	for _, preset := range []core.Params{core.PresetCCFIT(), core.PresetITh()} {
		p := preset
		n := buildC1(t, p)
		lastID := map[int]uint64{}
		for _, nd := range n.Nodes {
			nd := nd
			nd.SetDeliverHook(func(pk *pkt.Packet, now sim.Cycle) {
				n.Collector.Delivered(pk, now)
				if pk.ID <= lastID[pk.Flow] {
					t.Fatalf("%s: flow %d delivered id %d after %d (reorder)",
						p.Name, pk.Flow, pk.ID, lastID[pk.Flow])
				}
				lastID[pk.Flow] = pk.ID
			})
		}
		addFlows(t, n, []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: 40_000, Rate: 1.0},
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: 40_000, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: 40_000, Rate: 1.0},
		})
		n.Run(100_000)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int64) {
		n := buildC1(t, core.PresetCCFIT())
		addFlows(t, n, []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: 20_000, Rate: 1.0},
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: 20_000, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: 20_000, Rate: 1.0},
			{ID: 3, Src: 5, Dst: UniformSafe(4), Start: 0, End: 20_000, Rate: 0.8},
		})
		n.Run(60_000)
		_, db := n.TotalDelivered()
		return int(n.Collector.DeliveredPkts), int64(db)
	}
	p1, b1 := run()
	p2, b2 := run()
	if p1 != p2 || b1 != b2 {
		t.Fatalf("non-deterministic: run1 %d/%d, run2 %d/%d", p1, b1, p2, b2)
	}
}

// UniformSafe just documents intent: flow 3 is a fixed-destination flow
// in the determinism test.
func UniformSafe(d int) int { return d }

func TestHotspotCongestsOneQButNotCCFIT(t *testing.T) {
	// The core qualitative claim (Figs. 7/9): under a hot spot, the
	// victim flow's throughput collapses with 1Q and survives with
	// CCFIT's isolation.
	victim := func(p core.Params) float64 {
		n := buildC1(t, p)
		addFlows(t, n, []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: 400_000, Rate: 1.0}, // victim
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: 400_000, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: 400_000, Rate: 1.0},
			{ID: 5, Src: 5, Dst: 4, Start: 0, End: 400_000, Rate: 1.0},
			{ID: 6, Src: 6, Dst: 4, Start: 0, End: 400_000, Rate: 1.0},
		})
		n.Run(400_000)
		bins := int(sim.Cycle(400_000) / n.Collector.BinCycles())
		// Steady-state window: second half of the run.
		return n.Collector.MeanFlowBandwidth(0, bins/2, bins)
	}
	v1q := victim(core.Preset1Q())
	vcc := victim(core.PresetCCFIT())
	// The victim's fair share is its full 2.5 GB/s (it is alone on
	// every link it uses once contributors are isolated/throttled).
	if vcc < 2.0 {
		t.Fatalf("CCFIT victim bandwidth = %.2f GB/s, want > 2.0", vcc)
	}
	if v1q > vcc*0.7 {
		t.Fatalf("1Q victim %.2f GB/s vs CCFIT %.2f GB/s: HoL-blocking not visible", v1q, vcc)
	}
}

func TestIThGeneratesBECNsAndThrottles(t *testing.T) {
	n := buildC1(t, core.PresetITh())
	addFlows(t, n, []traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
	})
	n.Run(200_000)
	becns := 0
	stalls := 0
	for _, nd := range n.Nodes {
		becns += nd.Stats().BECNsReceived
		stalls += nd.Stats().ThrottleStalls
	}
	if becns == 0 {
		t.Fatal("no BECNs under a 3:1 hot spot with ITh")
	}
	if stalls == 0 {
		t.Fatal("BECNs arrived but throttling never gated an injection")
	}
	if n.Nodes[4].Stats().FECNSeen == 0 {
		t.Fatal("hot destination saw no FECN marks")
	}
}

func TestFBICMAllocatesAndReleasesCFQs(t *testing.T) {
	n := buildC1(t, core.PresetFBICM())
	addFlows(t, n, []traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: 100_000, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: 100_000, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: 100_000, Rate: 1.0},
	})
	n.Run(300_000) // traffic stops at 100k; trees must dissolve
	s := n.DiscStatsSum()
	if s.Detections == 0 {
		t.Fatal("no congestion detected under a 3:1 hot spot")
	}
	if s.Deallocs == 0 {
		t.Fatal("no CFQ was ever released")
	}
	// After the drain every CAM line must be free (leak check).
	for _, sw := range n.Switches {
		for i := 0; i < n.portCount(sw); i++ {
			if iso, ok := sw.InputDisc(i).(*core.IsolationUnit); ok {
				if iso.ActiveLines() != 0 {
					t.Fatalf("switch %s port %d leaks %d CAM lines", sw.Name(), i, iso.ActiveLines())
				}
			}
			if sw.OutCAM(i).ActiveLines() != 0 {
				t.Fatalf("switch %s port %d leaks output CAM lines", sw.Name(), i)
			}
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	p := core.PresetCCFIT()
	p.NumCFQs = 0
	if _, err := Build(topo.Config1(), p, Options{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestDoubleAddFlowsRejected(t *testing.T) {
	n := buildC1(t, core.Preset1Q())
	addFlows(t, n, []traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: 0, End: 100, Rate: 1}})
	if err := n.AddFlows(nil); err == nil {
		t.Fatal("second AddFlows accepted")
	}
}

func TestFatTreeUniformTraffic(t *testing.T) {
	f := topo.Config2()
	p := core.PresetCCFIT()
	n, err := Build(f.Topology, p, Options{Seed: 3, TieBreak: f.DETTieBreak})
	if err != nil {
		t.Fatal(err)
	}
	var flows []traffic.Flow
	for s := 0; s < 8; s++ {
		flows = append(flows, traffic.Flow{
			ID: s, Src: s, Dst: traffic.UniformDst, Start: 0, End: 50_000, Rate: 0.6,
		})
	}
	addFlows(t, n, flows)
	n.Run(150_000)
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if op != dp {
		t.Fatalf("uniform traffic lost packets: offered %d delivered %d", op, dp)
	}
	if dp < 1000 {
		t.Fatalf("only %d packets delivered", dp)
	}
}
